// Mixed-precision iterative refinement (the paper's Algorithm 2, §V-D):
// Cholesky-factorize in a 16-bit format F, cast the factor to Float64, then
// refine entirely in Float64 until the solution is accurate to double
// precision.  Optionally the factorization runs on Higham-scaled data
// (Algorithm 4); the refinement still solves the ORIGINAL system.
#pragma once

#include <cmath>
#include <optional>

#include "la/cholesky.hpp"
#include "la/dense.hpp"
#include "la/norms.hpp"
#include "mp/dd.hpp"
#include "mp/dquire.hpp"
#include "scaling/higham.hpp"

namespace pstab::la {

// Residual precision u_r of the three-precision scheme (Carson & Higham):
// `working` evaluates r = b - Ax in plain double, `dd` in double-double
// (u_r ~ u^2), `quire` exactly via the Kulisch accumulator with one rounding
// per entry.  The correction solve AND the convergence monitor both use it.
enum class ResidualPrec { working, dd, quire };

[[nodiscard]] inline const char* to_string(ResidualPrec p) {
  switch (p) {
    case ResidualPrec::working: return "f64";
    case ResidualPrec::dd: return "dd";
    case ResidualPrec::quire: return "quire";
  }
  return "?";
}

inline Vec<double> ir_residual(const Dense<double>& A, const Vec<double>& b,
                               const Vec<double>& x, ResidualPrec p) {
  switch (p) {
    case ResidualPrec::dd: return mp::dd_residual(A, b, x);
    case ResidualPrec::quire: return mp::quire_residual(A, b, x);
    case ResidualPrec::working: break;
  }
  return residual(A, b, x);
}

// IrStatus is la::SolveStatus (solve_report.hpp); IR uses `converged`,
// `max_iterations` ("1000+" in the paper's tables), `factorization_failed`
// ("-": pivot breakdown or arithmetic error in F), `diverged` ("-": the
// refinement blew up on a poor factorization) and `deadline_exceeded`.

/// The fields every refinement report carries (IrReport, LuIrReport).
struct RefineReport : SolveReport {
  double final_berr = 0.0;          // normwise backward error at exit
  double factorization_error = 0.0; // ||A_h - (factors)||_F / ||A_h||_F
};

struct IrReport : RefineReport {
  double shift_used = 0.0;          // diagonal shift the factorization needed
  la::CholStatus chol_status = la::CholStatus::ok;
};

/// One options struct per SolveRequest feeds every refinement driver
/// (mixed_ir, gmres_ir, lu_ir, gmres_ir_lu).
struct IrOptions {
  // "Accurate to Float64 precision" (Higham's convergence criterion family):
  // normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf).
  double tol = 4.0 * 1.11e-16;
  int max_iter = 1000;
  ResidualPrec residual = ResidualPrec::working;  // u_r of the triple
  bool record_history = false;  // berr per refinement step -> history
  bool record_trace = false;    // phases: "factorize", "refine"
  kernels::Context kernels{};   // backend for the format-F factorization
  ResilientOptions resilience{};   // Cholesky shift ladder (escalation across
                                   // formats lives in resilience/recover.hpp)
  fault::Observer* fault = nullptr;  // clocked per refinement step; also
                                     // passed down into the factorization
  core::Budget* budget = nullptr;    // ticked per refinement step AND per
                                     // factorization column (one allowance)
};

/// The refinement loop of every IR driver (Algorithm 2, lines 2-5), run on
/// the ORIGINAL system from x = 0 after the driver's format-F setup.  One
/// step: a budget tick and the fault hooks, the residual r at u_r, the
/// correction d = correct(r) (the driver's solve with the promoted factors),
/// x += d, then berr, history and the trace residual.  The step's outcome:
///   * non-finite iterate or berr: `diverged`, x restored to the previous
///     iterate.  x is checked itself because norm_inf_d skips NaN, so a NaN
///     iterate (say from a NaN right-hand side) can read as a finite berr;
///   * berr <= tol: `converged`;
///   * berr > 0.9 on the first step, or a later step 1e4x above the first
///     (and above 1e-2): `diverged`.  berr <= 1 for every finite iterate
///     (triangle inequality: ||b - Ax|| <= ||A|| ||x|| + ||b||) and
///     berr(x = 0) = 1 exactly, so a first step still at ~1 means the
///     factorization carried no information (e.g. garbage that reported ok);
///   * `max_iterations` once opt.max_iter steps ran; `deadline_exceeded`
///     when the budget runs out (history and berr so far stay in rep).
template <class Correct>
void refine(RefineReport& rep, const Dense<double>& A, const Vec<double>& b,
            Vec<double>& x, const IrOptions& opt, Correct&& correct) {
  const int n = A.rows();
  telemetry::Trace* tr = rep.trace.get();
  telemetry::TraceSpan refine_span(tr, "refine");
  const double norm_a = kernels::norm_inf(A);
  const double norm_b = kernels::norm_inf_d(b);
  x.assign(n, 0.0);

  double first_berr = -1.0;
  for (int it = 1; it <= opt.max_iter; ++it) {
    // One tick per refinement step, drawn from the same allowance the
    // factorization columns spent.
    if (!core::budget_tick(opt.budget)) {
      rep.status = SolveStatus::deadline_exceeded;
      return;
    }
    fault::on_iteration(opt.fault, it - 1);
    Vec<double> r = ir_residual(A, b, x, opt.residual);
    fault::touch_range(opt.fault, fault::Site::vector_entry, r.data(),
                       r.size());
    const Vec<double> d = correct(std::move(r));
    const Vec<double> x_prev = x;
    for (int i = 0; i < n; ++i) x[i] += d[i];

    const Vec<double> r2 = ir_residual(A, b, x, opt.residual);
    double berr =
        kernels::norm_inf_d(r2) / (norm_a * kernels::norm_inf_d(x) + norm_b);
    // The berr reduction is IR's dot_result site: a flipped monitor can fake
    // convergence (SDC) or fake divergence (detected) without touching x.
    fault::touch_scalar(opt.fault, fault::Site::dot_result, berr);
    rep.final_berr = berr;
    rep.iterations = it;
    if (opt.record_history) rep.history.push_back(berr);
    if (tr) tr->residual(berr);
    if (!std::isfinite(berr) || !kernels::all_finite(x)) {
      x = x_prev;  // never hand back a poisoned iterate
      rep.status = SolveStatus::diverged;
      return;
    }
    if (berr <= opt.tol) {
      rep.status = SolveStatus::converged;
      return;
    }
    const bool catastrophic_first = first_berr < 0 && berr > 0.9;
    if (first_berr < 0) first_berr = berr;
    if (catastrophic_first || (berr > 1e4 * first_berr && berr > 1e-2)) {
      rep.status = SolveStatus::diverged;
      return;
    }
  }
  rep.status = SolveStatus::max_iterations;
}

namespace detail {

/// The Cholesky "factor in F, promote to double" setup of mixed_ir and
/// gmres_ir: cast src down, factor (cholesky_resilient, so the shift ladder
/// runs when opt.resilience asks for it), record status, shift, recovery
/// trail and factorization error in rep, and return the factor cast to the
/// working precision (paper: "the factorization is cast into Float64 after
/// line 1") -- or nothing when the factorization failed.  `fact_in`, when
/// set, must be exactly what cholesky_resilient(fl_F(src), opt.resilience,
/// ...) would produce (e.g. the serve engine's factorization cache), so the
/// refinement is bit-identical to the factor-here path.
template <class F>
std::optional<Dense<double>> chol_ir_setup(IrReport& rep,
                                           const Dense<double>& src,
                                           const IrOptions& opt,
                                           const CholResult<F>* fact_in) {
  if (opt.record_trace) rep.trace = std::make_shared<telemetry::Trace>();
  const Dense<F> Ah = src.template cast_clamped<F>();
  telemetry::TraceSpan fact_span(rep.trace.get(), "factorize");
  CholResult<F> fact_local;
  if (!fact_in) {
    fact_local = cholesky_resilient(Ah, opt.resilience, nullptr, opt.kernels,
                                    opt.fault, opt.budget);
  }
  const CholResult<F>& fact = fact_in ? *fact_in : fact_local;
  fact_span.close();
  rep.chol_status = fact.status;
  rep.shift_used = fact.shift_used;
  rep.recovery = fact.recovery;  // "shift" rungs, if the ladder was climbed
  if (fact.status != CholStatus::ok) {
    rep.status = fact.status == CholStatus::deadline_exceeded
                     ? IrStatus::deadline_exceeded
                     : IrStatus::factorization_failed;
    return std::nullopt;
  }
  rep.factorization_error = factorization_backward_error(Ah, fact.R);
  return fact.R.template cast<double>();
}

/// Correction solve with the promoted Cholesky factor R: plain R^T R d = r,
/// or through Higham's scaling: (mu R A R) z = mu * rdiag .* r, then
/// d = rdiag .* z.
inline Vec<double> chol_correction(const Dense<double>& R,
                                   const scaling::HighamScaling* hs,
                                   Vec<double> r) {
  const int n = R.rows();
  if (hs) {
    for (int i = 0; i < n; ++i) r[i] = hs->mu * hs->rdiag[i] * r[i];
  }
  Vec<double> d = solve_upper(R, solve_lower_rt(R, r));
  if (hs) {
    for (int i = 0; i < n; ++i) d[i] *= hs->rdiag[i];
  }
  return d;
}

}  // namespace detail

/// Naive mixed-precision IR (paper Table II): factor fl_F(A) directly.
/// Higham-scaled IR (paper Table III): pass the scaling produced by
/// scaling::higham_scale, and the already-scaled matrix as `Ah_source`.
/// `fact_in` optionally supplies the format-F factorization of fl_F(src)
/// (see detail::chol_ir_setup for its contract).
template <class F>
IrReport mixed_ir(const Dense<double>& A, const Vec<double>& b,
                  Vec<double>& x, const IrOptions& opt = {},
                  const scaling::HighamScaling* hs = nullptr,
                  const Dense<double>* Ah_source = nullptr,
                  const CholResult<F>* fact_in = nullptr) {
  IrReport rep;
  const auto R =
      detail::chol_ir_setup<F>(rep, Ah_source ? *Ah_source : A, opt, fact_in);
  if (R) {
    refine(rep, A, b, x, opt, [&](Vec<double> r) {
      return detail::chol_correction(*R, hs, std::move(r));
    });
  }
  return rep;
}

}  // namespace pstab::la
