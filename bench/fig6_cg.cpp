// Paper Fig. 6: CG iterations to convergence (relative backward error 1e-5)
// for Float32, Posit(32,2), Posit(32,3), with Float64 for reference, on the
// unscaled suite; plus the percent-improvement series of Fig. 6(b).
//
// Paper shape to reproduce: Float32 and Posit(32,3) roughly comparable on
// well-scaled matrices; convergence trouble for posits begins at high-norm
// matrices (nos1 rightwards), where Posit(32,2) fails outright.
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("Fig 6: CG convergence, unscaled matrices");
  bench::telemetry_begin();

  const auto cell = [](const core::CgCell& c) {
    if (c.status == la::CgStatus::converged)
      return std::to_string(c.iterations);
    return std::string(c.status == la::CgStatus::breakdown ? "div" : "max");
  };

  core::Table t({"Matrix", "||A||2", "F64", "F32", "P(32,2)", "P(32,3)",
                 "%impr P2", "%impr P3"});
  const core::SolveRequest req;  // CG defaults: tol 1e-5, cap 15n
  const auto rows =
      core::run_suite(bench::suite(), core::run_cg_experiment, req);
  for (const auto& row : rows) {
    t.row({row.matrix, core::fmt_sci(row.norm2, 1), cell(row.f64),
           cell(row.f32), cell(row.p32_2), cell(row.p32_3),
           core::fmt_fix(row.pct_improvement(row.p32_2), 1),
           core::fmt_fix(row.pct_improvement(row.p32_3), 1)});
  }
  t.print();
  bench::write_results(core::results_json("cg", rows, req), "RESULTS_cg.json");
  std::printf(
      "\nExpected shape (paper): P(32,2) diverges/fails from nos1 rightward; "
      "P(32,3) degrades there; F32 ~ P(32,3) elsewhere.\n");
  return 0;
}
