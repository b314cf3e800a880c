// Per-layer metrics of the traced run (--trace 1) and the replays that
// measure them.  Three parts of the trace cannot come from run_request
// directly, so they are replayed through the same public calls it makes:
// a sample of paper_grid cells (matrix lookup -> scaling -> factor/solve ->
// emit), the large_cg kernels on the real operands, and the serve_mix
// request sequence through a counting ArtifactCache decorator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/solve_api.hpp"

namespace pstab::matrices {
struct GeneratedMatrix;
}

namespace pbench {

/// Every per-layer metric of BENCHMARK.json ("per_layer", in file order,
/// from Options::per_layer), starting at 0.  A workload sets the ones its
/// layers run; a metric of a layer the workload does not run stays 0
/// (README.md lists which workload measures which).
class LayerReport {
 public:
  explicit LayerReport(std::vector<Metric> spec);
  /// A name BENCHMARK.json does not list aborts.
  void set(const std::string& name, double value);
  [[nodiscard]] std::vector<Metric> finish() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> index_;
};

/// Median per-call milliseconds of the spans named `name` (0 when absent).
[[nodiscard]] double span_median_ms(const std::map<std::string, SpanStats>& st,
                                    const std::string& name);

// --- paper_grid ------------------------------------------------------------

/// Replay one grid cell (experiment tag, matrix) layer by layer under a
/// span tagged `request`; returns the re-emitted row, which must equal the
/// run_request row byte for byte (so iterations and verdicts reproduce).
/// IR refinement steps are added to `ir_steps`.
[[nodiscard]] std::string replay_grid_cell(const std::string& tag,
                                           const std::string& matrix,
                                           std::uint64_t request,
                                           std::uint64_t& ir_steps);

/// Cholesky factorization alone, per format, on the given suite matrices
/// (la.cholesky.factor_ms.<fmt>, median per matrix).
void cholesky_factor_ms(const std::vector<std::string>& matrices,
                        LayerReport& lr);

/// Scalar op throughput of p32_2, p16_1 and f16 on operands sampled from
/// the given suite matrices.
void posit_op_rates(const std::vector<std::string>& matrices, LayerReport& lr);

/// update_chain / syrk_update / gemm_update at the grid's largest order.
void panel_kernel_rates(LayerReport& lr);

// --- large_cg --------------------------------------------------------------

/// Replay CG per format on the large operands (la.cg.*) and the kernels it
/// calls per iteration: 1 apply, 2 dots, 2 axpy, 1 xpby (la/cg.hpp).
/// Returns the re-emitted CG row for the byte-for-byte check.
[[nodiscard]] std::string replay_cg_kernels(
    const pstab::matrices::GeneratedMatrix& m, LayerReport& lr);

// --- serve_mix -------------------------------------------------------------

struct CacheReplay {
  std::map<std::uint64_t, double> service_s;  // request id -> run_request time
  std::map<std::uint64_t, std::string> responses;  // id -> response bytes
};

/// Replay `warm` and then `reqs` in order through run_request with a
/// counting decorator over a serve::Cache of `cache_bytes`.  Build times
/// (serve.cache.<kind>.build_ms, la.lu.factor_ms) cover both parts; hit
/// rates, evictions and service times cover `reqs` alone, on the cache the
/// warm-up left, as the engine's timed phases see it.
[[nodiscard]] CacheReplay replay_serve_cache(
    const std::vector<pstab::core::SolveRequest>& warm,
    const std::vector<pstab::core::SolveRequest>& reqs,
    std::size_t cache_bytes, LayerReport& lr);

}  // namespace pbench
