// Paper Table III: mixed-precision IR after Higham's scaling (Algorithm 4/5)
// with mu = 0.1 * FP16max for Float16 and mu = USEED for posits, both rounded
// to a power of four.  Expected shape: posit16 outperforms Float16 in every
// experiment (fewer refinement iterations); matrices that were hopeless
// naively become solvable.
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("Table III: mixed-precision IR after Higham scaling");
  bench::telemetry_begin();

  const auto cell = [](const la::IrReport& r) {
    const bool failed = r.status == la::IrStatus::factorization_failed ||
                        r.status == la::IrStatus::diverged;
    const bool capped = r.status == la::IrStatus::max_iterations;
    return core::fmt_iters(failed, capped, r.iterations);
  };

  core::SolveRequest req;
  req.solver = core::Solver::ir;
  req.rescale = true;  // Higham scaling (Algorithms 4/5)

  int posit_wins = 0, comparable = 0;
  const auto rows =
      core::run_suite(bench::suite(), core::run_ir_experiment, req);
  core::Table t(
      {"Matrix", "Float16", "Posit(16,1)", "Posit(16,2)", "% diff"});
  for (const auto& row : rows) {
    const double pct = row.pct_reduction();
    if (pct > 0) ++posit_wins;
    ++comparable;
    t.row({row.matrix, cell(row.f16), cell(row.p16_1), cell(row.p16_2),
           core::fmt_fix(pct, 1)});
  }
  t.print();
  bench::write_results(core::results_json("ir_higham", rows, req),
                       "RESULTS_ir_higham.json");
  std::printf(
      "\nBest posit format needs fewer refinement steps than Float16 on "
      "%d/%d matrices.  Paper: posit wins every row of Table III.\n",
      posit_wins, comparable);
  return 0;
}
