// Paper Fig. 7: CG after the power-of-two re-scaling that puts ||A||_inf
// near 2^10 (A' = sA, b' = sb).  Expected shape: posit convergence is
// repaired everywhere; Posit(32,3) converges at least as fast as Float32 on
// all matrices, and Posit(32,2) no longer diverges.
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("Fig 7: CG convergence after ||A||_inf -> 2^10 re-scaling");
  bench::telemetry_begin();

  const auto cell = [](const core::CgCell& c) {
    if (c.status == la::CgStatus::converged)
      return std::to_string(c.iterations);
    return std::string(c.status == la::CgStatus::breakdown ? "div" : "max");
  };

  core::SolveRequest req;
  req.rescale = true;  // power-of-two ||A||_inf -> 2^10 rescaling

  core::Table t({"Matrix", "||A||2", "F64", "F32", "P(32,2)", "P(32,3)",
                 "%impr P2", "%impr P3"});
  const auto rows =
      core::run_suite(bench::suite(), core::run_cg_experiment, req);
  for (const auto& row : rows) {
    t.row({row.matrix, core::fmt_sci(row.norm2, 1), cell(row.f64),
           cell(row.f32), cell(row.p32_2), cell(row.p32_3),
           core::fmt_fix(row.pct_improvement(row.p32_2), 1),
           core::fmt_fix(row.pct_improvement(row.p32_3), 1)});
  }
  t.print();
  bench::write_results(core::results_json("cg_rescaled", rows, req),
                       "RESULTS_cg_rescaled.json");
  std::printf(
      "\nExpected shape (paper): no posit divergences remain after scaling; "
      "posit iteration counts match or beat Float32.\n");
  return 0;
}
