// Paper Fig. 9: Cholesky after Algorithm 3 (divide A and b by the average
// |diagonal| rounded to the nearest power of two).  Expected shape: both
// posit formats beat Float32 on EVERY matrix; Posit(32,2) achieves at least
// one extra decimal digit, approaching its theoretical +1.2 digits (4 bits).
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("Fig 9: Cholesky backward error after diagonal re-scaling");
  bench::telemetry_begin();

  const auto err = [](const core::CholCell& c) {
    return c.converged() ? core::fmt_sci(c.true_relres, 2) : std::string("-");
  };

  core::SolveRequest req;
  req.solver = core::Solver::cholesky;
  req.rescale = true;  // Algorithm 3: diagonal-average rescaling

  int wins_p2 = 0, wins_p3 = 0, n = 0;
  double min_digits_p2 = 1e9;
  core::Table t({"Matrix", "||A||2", "berr F32", "berr P(32,2)",
                 "berr P(32,3)", "digits P2", "digits P3"});
  const auto rows =
      core::run_suite(bench::suite(), core::run_cholesky_experiment, req);
  for (const auto& row : rows) {
    const double d2 = row.extra_digits(row.p32_2);
    const double d3 = row.extra_digits(row.p32_3);
    if (!std::isnan(d2)) {
      ++n;
      wins_p2 += d2 > 0;
      min_digits_p2 = std::min(min_digits_p2, d2);
    }
    if (!std::isnan(d3)) wins_p3 += d3 > 0;
    t.row({row.matrix, core::fmt_sci(row.norm2, 1), err(row.f32),
           err(row.p32_2), err(row.p32_3), core::fmt_fix(d2, 2),
           core::fmt_fix(d3, 2)});
  }
  t.print();
  bench::write_results(core::results_json("cholesky_rescaled", rows, req),
                       "RESULTS_cholesky_rescaled.json");
  std::printf(
      "\nP(32,2) beats F32 on %d/%d matrices (min advantage %.2f digits); "
      "P(32,3) on %d.  Paper: both formats win everywhere, P(32,2) >= +1 "
      "digit (theoretical max +1.2).\n",
      wins_p2, n, min_digits_p2, wins_p3);
  return 0;
}
