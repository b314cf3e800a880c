// Paper Table II: out-of-the-box mixed-precision iterative refinement.
// Factor in the 16-bit format (entries clamped at the format max), refine in
// Float64 to Float64 accuracy.  "-" = factorization failure or divergence;
// "1000+" = factorization succeeded but refinement didn't converge in 1000.
// Expected shape: Posit(16,2) solves more matrices than Float16 thanks to
// its wider dynamic range, but many matrices fail for every format.
#include "bench_common.hpp"
#include "core/experiments.hpp"

int main() {
  using namespace pstab;
  bench::print_env("Table II: naive mixed-precision IR (factor in 16-bit)");
  bench::telemetry_begin();

  const auto cell = [](const la::IrReport& r) {
    const bool failed = r.status == la::IrStatus::factorization_failed ||
                        r.status == la::IrStatus::diverged;
    const bool capped = r.status == la::IrStatus::max_iterations;
    return core::fmt_iters(failed, capped, r.iterations);
  };

  // The paper's notion of "can solve": the factorization survives and the
  // refinement does not blow up (a "1000+" row still counts as workable).
  const auto workable = [](const la::IrReport& r) {
    return r.status == la::IrStatus::converged ||
           r.status == la::IrStatus::max_iterations;
  };

  int ok_f16 = 0, ok_p1 = 0, ok_p2 = 0;
  core::SolveRequest req;
  req.solver = core::Solver::ir;
  const auto rows =
      core::run_suite(bench::suite(), core::run_ir_experiment, req);
  core::Table t({"Matrix", "Float16", "Posit(16,1)", "Posit(16,2)"});
  for (const auto& row : rows) {
    ok_f16 += workable(row.f16);
    ok_p1 += workable(row.p16_1);
    ok_p2 += workable(row.p16_2);
    t.row({row.matrix, cell(row.f16), cell(row.p16_1), cell(row.p16_2)});
  }
  t.print();
  bench::write_results(core::results_json("ir_naive", rows, req),
                       "RESULTS_ir_naive.json");
  std::printf(
      "\nWorkable out of the box: Float16 %d, Posit(16,1) %d, Posit(16,2) %d "
      "of 19.  Paper Table II: Posit(16,2) handles the most rows (11), "
      "Float16 the fewest (5) — its wider dynamic range is what helps.\n",
      ok_f16, ok_p1, ok_p2);
  return 0;
}
