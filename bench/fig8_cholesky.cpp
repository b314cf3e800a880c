// Paper Fig. 8: Cholesky direct solve on the unscaled suite.
// (a) extra digits of precision of Posit32 over Float32, computed as
//     log10(FloatResidual / PositResidual);
// (b) that advantage for Posit(32,2) against the matrix 2-norm.
// Expected shape: P(32,2) gives no consistent advantage; P(32,3) helps a
// little; the advantage of either format decays as ||A||_2 grows.
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("Fig 8: Cholesky relative backward error, unscaled");
  bench::telemetry_begin();

  const auto err = [](const core::CholCell& c) {
    return c.converged() ? core::fmt_sci(c.true_relres, 2) : std::string("-");
  };

  core::Table t({"Matrix", "||A||2", "berr F32", "berr P(32,2)",
                 "berr P(32,3)", "digits P2", "digits P3"});
  core::SolveRequest req;
  req.solver = core::Solver::cholesky;
  const auto rows =
      core::run_suite(bench::suite(), core::run_cholesky_experiment, req);
  for (const auto& row : rows) {
    t.row({row.matrix, core::fmt_sci(row.norm2, 1), err(row.f32),
           err(row.p32_2), err(row.p32_3),
           core::fmt_fix(row.extra_digits(row.p32_2), 2),
           core::fmt_fix(row.extra_digits(row.p32_3), 2)});
  }
  t.print();
  bench::write_results(core::results_json("cholesky", rows, req),
                       "RESULTS_cholesky.json");
  std::printf(
      "\nFig 8(b) series is the (||A||2, digits P2) column pair above; "
      "expected: advantage decreases with increasing norm.\n");
  return 0;
}
