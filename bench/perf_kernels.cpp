// Scalar-vs-batched-vs-simd throughput for the la::kernels backends: dot /
// axpy / gemv / banded-CSR spmv over posit16_1, posit32_2, posit32_3 and
// half, each timed through
// Backend::Scalar, Backend::Batched and Backend::Simd and checked bitwise
// identical.  Writes BENCH_kernels.json (pstab-results-v1, experiment
// "kernels") into PSTAB_RESULTS_DIR so the backend speedups are tracked
// across PRs, with the active vector ISA recorded in options.simd_isa.
//
// Acceptance floors at n = 4096:
//   * batched posit32_2 dot/gemv: 3x over the seed-era scalar kernels
//     (~27 Mop/s on the reference box; the scalar column itself has sped up
//     since, see docs/kernels.md);
//   * simd posit32_2 dot: 4x over the seed-era batched dot (~110 Mop/s on
//     the reference box) on AVX2-class hardware.  Measured shortfalls print
//     a warning rather than failing: the floor is a hardware statement, and
//     shared/throttled CI boxes routinely miss it (docs/simd.md records the
//     numbers a quiet box achieves).
//
// Bitwise divergence between backends, by contrast, is always a hard error.
//
// Telemetry is deliberately NOT started: active telemetry forces the
// batched/simd backends to fall back to scalar (counters are per-op), which
// would turn every comparison into scalar-vs-scalar.
#include <cstdio>

#include "bench_common.hpp"
#include "core/kernels_bench.hpp"
#include "core/report.hpp"
#include "la/kernels/simd/simd.hpp"

int main() {
  using namespace pstab;
  bench::print_env("kernel backends: scalar vs batched vs simd");
  std::printf("simd isa: %s\n",
              la::kernels::simd::isa_name(la::kernels::simd::active_isa()));

  constexpr int kN = 4096;
  const auto rows = core::run_kernels_bench(kN);

  core::Table t({"Kernel", "Format", "n", "Scalar Mop/s", "Batched Mop/s",
                 "Simd Mop/s", "B-Speedup", "S-Speedup", "Identical"});
  bool all_identical = true;
  bool posit32_fast = true;
  bool simd_fast = true;
  for (const auto& r : rows) {
    t.row({r.kernel, r.format, core::fmt_int(r.n),
           core::fmt_fix(r.scalar_mops, 1), core::fmt_fix(r.batched_mops, 1),
           core::fmt_fix(r.simd_mops, 1), core::fmt_fix(r.speedup(), 2) + "x",
           core::fmt_fix(r.simd_speedup(), 2) + "x",
           r.identical && r.simd_identical ? "yes" : "NO"});
    all_identical = all_identical && r.identical && r.simd_identical;
    if (r.format == "posit32_2" && (r.kernel == "dot" || r.kernel == "gemv") &&
        r.speedup() < 3.0) {
      posit32_fast = false;
    }
    if (r.format == "posit32_2" && r.kernel == "dot" && r.batched_mops > 0 &&
        r.simd_mops / r.batched_mops < 4.0) {
      simd_fast = false;
    }
  }
  t.print();

  if (!all_identical) {
    std::printf("ERROR: a backend diverged from scalar bitwise\n");
    return 2;
  }
  if (!posit32_fast) {
    std::printf("WARNING: posit32_2 dot/gemv batched speedup below the 3x "
                "target against the current scalar column (the seed-era "
                "scalar baseline is slower; see docs/kernels.md)\n");
  }
  if (!simd_fast &&
      la::kernels::simd::active_isa() != la::kernels::simd::Isa::kScalar) {
    std::printf("WARNING: posit32_2 dot simd speedup below the 4x target "
                "over the batched column (chain exits are mispredict-bound; "
                "shared boxes miss the floor — see docs/simd.md)\n");
  }
  bench::write_results(core::kernels_results_json(rows, kN),
                       "BENCH_kernels.json");
  return 0;
}
