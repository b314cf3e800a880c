// General-systems LU-IR: three-precision iterative refinement (Carson &
// Higham) on the non-symmetric suite.  Factor fl_F(A) with partial pivoting
// in each 16-bit format, promote the factors to Float64, refine in Float64
// with the residual in double-double.  Expected shape: every format solves
// the well-conditioned rows; as k(A)*u_f approaches 1 plain refinement stops
// contracting ("1000+"), and the big-norm fs_183_1 row overflows Float16's
// range entirely ("-") while wider-range formats survive.
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("LU-IR: three-precision refinement, general suite");
  bench::telemetry_begin();

  const auto cell = [](const la::LuIrReport& r) {
    const bool failed = r.status == la::SolveStatus::factorization_failed ||
                        r.status == la::SolveStatus::diverged;
    return core::fmt_iters(failed, r.status == la::SolveStatus::max_iterations,
                           r.iterations);
  };
  const auto workable = [](const la::LuIrReport& r) {
    return r.status == la::SolveStatus::converged ||
           r.status == la::SolveStatus::max_iterations;
  };

  core::SolveRequest req;
  req.solver = core::Solver::lu_ir;
  const auto rows = core::run_suite(matrices::general_suite(),
                                    core::run_lu_ir_experiment, req);

  int ok[4] = {0, 0, 0, 0};
  core::Table t({"Matrix", "k(A)", "Float16", "BFloat16", "Posit(16,1)",
                 "Posit(16,2)"});
  for (const auto& row : rows) {
    std::vector<std::string> cols = {row.matrix, core::fmt_sci(row.cond, 1)};
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      cols.push_back(cell(row.cells[c].rep));
      if (c < 4) ok[c] += workable(row.cells[c].rep);
    }
    t.row(cols);
  }
  t.print();
  bench::write_results(core::results_json("lu_ir", rows, req),
                       "RESULTS_lu_ir.json");
  std::printf(
      "\nWorkable (converged or still contracting at the cap): Float16 %d, "
      "BFloat16 %d, Posit(16,1) %d, Posit(16,2) %d of %zu.  Plain LU-IR "
      "contracts while k(A)*u_f < 1; the rows it cannot solve are exactly the "
      "GMRES-IR rescue targets (see ablation_gmres_ir).\n",
      ok[0], ok[1], ok[2], ok[3], rows.size());
  return 0;
}
