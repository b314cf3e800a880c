// Failure-injection tests: the solvers must classify, not crash on,
// poisoned inputs (NaR/NaN contamination, non-finite right-hand sides,
// degenerate systems) in every format.
#include <gtest/gtest.h>

#include "ieee/softfloat.hpp"
#include "la/bicgstab.hpp"
#include "la/cg.hpp"
#include "la/cholesky.hpp"
#include "la/gmres.hpp"
#include "la/ir.hpp"
#include "la/lu.hpp"
#include "matrices/generator.hpp"
#include "posit/posit.hpp"

namespace {

using namespace pstab;

matrices::GeneratedMatrix clean() {
  matrices::MatrixSpec spec{"rob", 30, 250, 1.0e3, 4.0, 1.0e2};
  return matrices::generate_spd(spec, 0);
}

TEST(Robustness, CholeskyOnNaRContaminatedMatrix) {
  const auto g = clean();
  auto A = g.dense.cast<Posit32_2>();
  A(10, 10) = Posit32_2::nar();
  const auto f = la::cholesky(A);
  EXPECT_NE(f.status, la::CholStatus::ok);
  EXPECT_LE(f.failed_column, 10);
}

TEST(Robustness, CholeskyOnNanContaminatedMatrix) {
  const auto g = clean();
  auto A = g.dense;
  A(5, 7) = std::numeric_limits<double>::quiet_NaN();
  A(7, 5) = A(5, 7);
  const auto f = la::cholesky(A);
  EXPECT_EQ(f.status, la::CholStatus::arithmetic_error);
}

TEST(Robustness, CgWithNaRRhsBreaksDownCleanly) {
  const auto g = clean();
  const auto S = g.csr.cast<Posit32_2>();
  la::Vec<Posit32_2> b(g.n, Posit32_2::from_double(1.0));
  b[3] = Posit32_2::nar();
  la::Vec<Posit32_2> x;
  la::CgOptions opt;
  opt.max_iter = 100;
  const auto rep = la::cg_solve(S, b, x, opt);
  EXPECT_EQ(rep.status, la::CgStatus::breakdown);
  EXPECT_LE(rep.iterations, 2);
}

TEST(Robustness, CgWithInfRhsInHalf) {
  const auto g = clean();
  const auto S = g.csr.cast<Half>();
  la::Vec<Half> b(g.n, Half(1.0));
  b[0] = Half::infinity();
  la::Vec<Half> x;
  la::CgOptions opt;
  opt.max_iter = 100;
  const auto rep = la::cg_solve(S, b, x, opt);
  EXPECT_EQ(rep.status, la::CgStatus::breakdown);
}

TEST(Robustness, CgZeroRhsConvergesImmediately) {
  const auto g = clean();
  la::Vec<double> b(g.n, 0.0), x;
  const auto rep = la::cg_solve(g.csr, b, x, {});
  EXPECT_EQ(rep.status, la::CgStatus::converged);
  EXPECT_EQ(rep.iterations, 0);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(Robustness, LuOnAllZeroMatrix) {
  la::Dense<double> A(4, 4);
  const auto f = la::lu_factor(A);
  EXPECT_EQ(f.status, la::LuStatus::singular);
  EXPECT_EQ(f.failed_column, 0);
}

TEST(Robustness, IrOnNanRhsDiverges) {
  const auto g = clean();
  la::Vec<double> b(g.n, std::numeric_limits<double>::quiet_NaN());
  la::Vec<double> x;
  const auto rep = la::mixed_ir<Half>(g.dense, b, x);
  EXPECT_NE(rep.status, la::IrStatus::converged);
}

TEST(Robustness, OneByOneSystems) {
  // Degenerate sizes must work through every code path.
  la::Dense<double> A(1, 1);
  A(0, 0) = 4.0;
  const auto f = la::cholesky(A);
  ASSERT_EQ(f.status, la::CholStatus::ok);
  EXPECT_EQ(f.R(0, 0), 2.0);
  const auto x = la::cholesky_solve(A, la::Vec<double>{8.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], 2.0);

  const auto Sp = la::Csr<Posit16_2>::from_triplets(1, 1, {{0, 0, 2.0}});
  la::Vec<Posit16_2> bp{Posit16_2(6.0)}, xp;
  const auto rep = la::cg_solve(Sp, bp, xp, {});
  EXPECT_EQ(rep.status, la::CgStatus::converged);
  EXPECT_EQ(xp[0].to_double(), 3.0);
}

TEST(Robustness, BicgstabWithNaRRhsBreaksDownCleanly) {
  const auto g = clean();
  const auto S = g.csr.cast<Posit32_2>();
  la::Vec<Posit32_2> b(g.n, Posit32_2::from_double(1.0));
  b[3] = Posit32_2::nar();
  la::Vec<Posit32_2> x;
  const auto rep = la::bicgstab_solve(S, b, x, 1e-5, 100);
  EXPECT_EQ(rep.status, la::SolveStatus::breakdown);
  EXPECT_LE(rep.iterations, 2);
  // Breakdown must never propagate NaR into the returned solution.
  for (const auto& v : x) EXPECT_FALSE(v.is_nar());
}

TEST(Robustness, BicgstabWithInfRhsInHalf) {
  const auto g = clean();
  const auto S = g.csr.cast<Half>();
  la::Vec<Half> b(g.n, Half(1.0));
  b[0] = Half::infinity();
  la::Vec<Half> x;
  const auto rep = la::bicgstab_solve(S, b, x, 1e-5, 100);
  EXPECT_EQ(rep.status, la::SolveStatus::breakdown);
  for (const auto& v : x) EXPECT_TRUE(std::isfinite(v.to_double()));
}

TEST(Robustness, BicgstabCleanStillConverges) {
  const auto g = clean();
  la::Vec<double> b(g.n, 1.0), x;
  const auto rep = la::bicgstab_solve(g.csr, b, x, 1e-8, 2000);
  EXPECT_EQ(rep.status, la::SolveStatus::converged);
  const auto r = la::residual(g.dense, b, x);
  EXPECT_LE(la::kernels::nrm2_d(r) / la::kernels::nrm2_d(b), 1e-6);
}

TEST(Robustness, GmresWithNanRhsBreaksDown) {
  const auto g = clean();
  la::Vec<double> b(g.n, 1.0);
  b[5] = std::numeric_limits<double>::quiet_NaN();
  la::Vec<double> x;
  const auto rep = la::gmres_solve(g.dense, b, x, nullptr, 1e-10, 200);
  // A poisoned residual must classify as breakdown, not spin to the
  // iteration cap, and must leave x finite.
  EXPECT_EQ(rep.status, la::SolveStatus::breakdown);
  EXPECT_TRUE(la::kernels::all_finite(x));
}

TEST(Robustness, GmresWithNanPreconditionerBreaksDown) {
  const auto g = clean();
  la::Vec<double> b(g.n, 1.0), x;
  const auto minv = [&](const la::Vec<double>& v) {
    la::Vec<double> out = v;
    out[0] = std::numeric_limits<double>::quiet_NaN();
    return out;
  };
  const auto rep = la::gmres_solve(g.dense, b, x, minv, 1e-10, 200);
  EXPECT_EQ(rep.status, la::SolveStatus::breakdown);
  EXPECT_TRUE(la::kernels::all_finite(x));
}

// A NaN right-hand side poisons the first iterate, yet the backward error's
// infinity norms skip NaN: with one NaN entry the poisoned iterate reads as
// berr 0.  Every refinement driver must report failure and hand back a
// finite x, for one NaN entry and for an all-NaN b.
TEST(Robustness, IrDriversOnNanRhsNeverReturnPoisonedIterate) {
  const auto g = clean();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  la::Vec<double> one_nan(g.n, 1.0);
  one_nan[3] = nan;
  for (const auto& b : {one_nan, la::Vec<double>(g.n, nan)}) {
    const auto expect_unpoisoned = [](const char* driver, const auto& rep,
                                      const la::Vec<double>& x) {
      SCOPED_TRACE(driver);
      EXPECT_NE(rep.status, la::SolveStatus::converged);
      EXPECT_TRUE(la::kernels::all_finite(x));
    };
    la::Vec<double> x;
    expect_unpoisoned("mixed_ir", la::mixed_ir<Half>(g.dense, b, x), x);
    expect_unpoisoned("gmres_ir", la::gmres_ir<Half>(g.dense, b, x), x);
    expect_unpoisoned("lu_ir", la::lu_ir<Half>(g.dense, b, x), x);
    expect_unpoisoned("gmres_ir_lu", la::gmres_ir_lu<Half>(g.dense, b, x), x);
  }
}

TEST(Robustness, SaturatedCastStillFactorizable) {
  // Posit casts of huge matrices saturate at maxpos rather than inf; the
  // factorization may fail numerically but must not produce NaR surprises
  // that escape the status reporting.
  matrices::MatrixSpec spec{"rob_huge", 20, 150, 1.0e4, 1.0e30, 1.0e2};
  const auto g = matrices::generate_spd(spec, 0);
  const auto Ap = g.dense.cast_clamped<Posit16_2>();
  const auto f = la::cholesky(Ap);
  // Either outcome is fine; what matters is a classified status and, on
  // success, a finite factor.
  if (f.status == la::CholStatus::ok) {
    for (const auto& v : f.R.data()) EXPECT_TRUE(!v.is_nar());
  } else {
    EXPECT_GE(f.failed_column, 0);
  }
}

}  // namespace
