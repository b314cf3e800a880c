// Scalar-vs-batched-vs-simd kernel micro-benchmark shared by `pstab kernels
// --bench` and bench/perf_kernels.  Times dot / axpy / gemv / spmv in all
// three backends, checks the results are bit-identical, and serializes a
// pstab-results-v1 document (experiment "kernels") so
// tools/check_results_schema.py can validate it.
#pragma once

#include <string>
#include <vector>

namespace pstab::core {

struct KernelBenchRow {
  std::string kernel;  // "dot" | "axpy" | "gemv" | "spmv"
  std::string format;  // "posit16_1" | "posit32_2" | "posit32_3" | "half"
  int n = 0;           // vector length (gemv: column count; spmv: order)
  double scalar_mops = 0.0;
  double batched_mops = 0.0;
  double simd_mops = 0.0;      // Backend::Simd (scalar path when no ISA)
  bool identical = true;       // batched result bitwise equal to scalar
  bool simd_identical = true;  // simd result bitwise equal to scalar

  [[nodiscard]] double speedup() const {
    return scalar_mops > 0 ? batched_mops / scalar_mops : 0.0;
  }
  [[nodiscard]] double simd_speedup() const {
    return scalar_mops > 0 ? simd_mops / scalar_mops : 0.0;
  }
};

/// Run the full grid (4 kernels x 4 formats).  `n` is the vector length;
/// gemv uses a `gemv_rows` x `n` matrix so the run stays short while the
/// inner loops still see `n`-length rows, and spmv an n x n banded CSR
/// matrix with 7 nonzeros per interior row.
std::vector<KernelBenchRow> run_kernels_bench(int n = 4096,
                                              int gemv_rows = 256);

/// pstab-results-v1 JSON (experiment "kernels").
std::string kernels_results_json(const std::vector<KernelBenchRow>& rows,
                                 int n);

}  // namespace pstab::core
