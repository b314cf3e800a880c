// Conjugate Gradient exactly as the paper's Algorithm 1: the residual is
// maintained by the recurrence r_{i+1} = r_i - alpha_i A p_i (not recomputed
// from the definition), and convergence is declared when the recurrence
// residual's 2-norm drops below tol * ||b||.  All arithmetic runs in the
// format under test with per-operation rounding.
//
// Two optional robustness layers (both default-off and bit-transparent when
// off):
//   * fault hooks (la/fault.hpp): an installed Observer is clocked once per
//     iteration and offered the residual vector and the Krylov inner products
//     for in-place corruption — the resilience campaign's injection surface;
//   * self-healing (ResilientOptions): periodic true-residual recomputation
//     (r = b - A x, shedding recurrence drift) and restart-on-breakdown from
//     the last finite checkpoint, each attempt recorded in
//     SolveReport::recovery and in the "recover" trace phase.
#pragma once

#include <vector>

#include "core/budget.hpp"
#include "core/telemetry/trace.hpp"
#include "la/csr.hpp"
#include "la/fault.hpp"
#include "la/kernels/kernels.hpp"
#include "la/kernels/plane.hpp"
#include "la/solve_report.hpp"

namespace pstab::la {

// CgStatus is la::SolveStatus (solve_report.hpp); CG uses the `converged`,
// `max_iterations` (cap reached) and `breakdown` (<p,Ap> or <r,r> became
// non-positive / NaR / NaN) cases.  The report is the plain shared base.
using CgReport = SolveReport;

struct CgOptions {
  double tol = 1e-5;        // the paper's convergence threshold
  int max_iter = 25000;
  bool fused_dots = false;  // quire / extended-accumulator ablation
  bool record_history = false;
  bool record_trace = false;  // allocate SolveReport::trace (phases+residuals)
  kernels::Context kernels{};  // backend for the BLAS kernels (bit-identical)
  ResilientOptions resilience{};   // self-healing (off by default)
  fault::Observer* fault = nullptr;  // injection hook (null = no overhead)
  core::Budget* budget = nullptr;    // tick-deadline hook (null = no overhead)
};

template <class T, class Mat>
CgReport cg_solve(const Mat& A, const Vec<T>& b, Vec<T>& x,
                  const CgOptions& opt = {}) {
  using st = scalar_traits<T>;
  const int n = int(b.size());
  CgReport rep;
  if (opt.record_trace) rep.trace = std::make_shared<telemetry::Trace>();
  telemetry::Trace* tr = rep.trace.get();

  const kernels::Context& kc = opt.kernels;
  const auto dotp = [&](const auto& u, const auto& v) {
    return opt.fused_dots ? kernels::dot_fused(kc, u, v) : kernels::dot(kc, u, v);
  };

  // A vector-backend request that had to fall back to scalar (unavailable
  // ISA, kill switch via an unknown PSTAB_SIMD, nonstandard FP environment)
  // is surfaced in the report instead of failing: the result bits are
  // identical either way, only the throughput differs.
  {
    const kernels::Backend eff = kc.backend == kernels::Backend::Auto
                                     ? kernels::default_backend()
                                     : kc.backend;
    if (eff != kernels::Backend::Scalar && eff != kernels::Backend::Batched) {
      if (const char* note = kernels::simd::fallback_note())
        rep.recovery.push_back({0, note, 0.0});
    }
  }

  x.assign(n, st::zero());
  // The working vectors are kernel planes (la/kernels/plane.hpp): f64 planes
  // of exact values when the Simd leg runs, so the iteration rounds but never
  // encodes; x is encoded once, when the solve ends.
  kernels::Plane<T> bp, xp, r, p, ap;
  double normb = 0.0;
  T rr = st::zero();
  {
    telemetry::TraceSpan setup_span(tr, "setup");
    normb = kernels::nrm2_d(b);
    if (normb == 0) {
      rep.status = CgStatus::converged;
      return rep;
    }
    bp = kernels::to_plane(kc, b);
    xp = kernels::zeros_like(bp);
    r = bp;   // r0 = b - A*0 = b
    p = r;    // p0 = r0
    ap = xp;
    rr = dotp(r, r);
  }

  const ResilientOptions& res = opt.resilience;
  // Last iterate known to produce a finite, positive <r, r>; the restart
  // target.  Only maintained when recovery is on, so a disabled solve stays
  // allocation- and bit-identical to the plain algorithm.
  kernels::Plane<T> x_ckpt;
  if (res.enabled) x_ckpt = xp;
  int restarts_used = 0;

  // r = b - A x in T (per-operation rounding; b + (-1)(Ax) is the same
  // rounding, the product being exact), then p = r, rr = <r, r>.  Returns
  // false if the recomputed <r, r> is unusable.
  const auto recompute_residual = [&]() -> bool {
    kernels::apply(kc, A, xp, ap);
    kernels::xpby(kc, bp, -st::one(), ap, r);
    p = r;
    rr = dotp(r, r);
    return st::finite(rr) && st::to_double(rr) > 0.0;
  };

  const auto iterate = [&] {
    telemetry::TraceSpan iterate_span(tr, "iterate");
    for (int it = 0; it < opt.max_iter; ++it) {
      // One budget tick per iteration: the deadline trips at the same `it`
      // on every run (work units, not wall time), so the partial report
      // below is byte-deterministic.  History/recovery recorded so far stay
      // in `rep`.
      if (!core::budget_tick(opt.budget)) {
        rep.status = CgStatus::deadline_exceeded;
        rep.iterations = it;
        return;
      }
      fault::on_iteration(opt.fault, it);
      if (res.enabled && res.recompute_every > 0 && it > 0 &&
          it % res.recompute_every == 0) {
        telemetry::TraceSpan recover_span(tr, "recover");
        if (recompute_residual()) x_ckpt = xp;
        rep.recovery.push_back(
            {it, "recompute",
             std::sqrt(std::max(0.0, st::to_double(rr))) / normb});
      }
      const double relres = std::sqrt(std::max(0.0, st::to_double(rr))) / normb;
      if (opt.record_history) rep.history.push_back(relres);
      if (tr) tr->residual(relres);
      rep.final_relres = relres;
      if (relres <= opt.tol) {
        rep.status = CgStatus::converged;
        rep.iterations = it;
        return;
      }

      // Breakdown of any Krylov scalar: either restart from the checkpoint
      // (recovery on, budget left) or classify and stop.  `broke` burns the
      // iteration either way, so the loop stays bounded by max_iter.
      const auto broke = [&](int at) -> bool {
        if (res.enabled && restarts_used < res.max_restarts) {
          telemetry::TraceSpan recover_span(tr, "recover");
          ++restarts_used;
          xp = x_ckpt;
          const bool ok = recompute_residual();
          rep.recovery.push_back(
              {at, "restart",
               std::sqrt(std::max(0.0, st::to_double(rr))) / normb});
          if (ok) return true;  // resume from the checkpoint
        }
        rep.status = CgStatus::breakdown;
        rep.iterations = at;
        return false;
      };

      if (!st::finite(rr) || !(st::to_double(rr) > 0.0)) {
        if (broke(it)) continue;
        return;
      }

      kernels::apply(kc, A, p, ap);
      T pap = dotp(p, ap);
      fault::touch_scalar(opt.fault, fault::Site::dot_result, pap);
      if (!st::finite(pap) || !(st::to_double(pap) > 0.0)) {
        if (broke(it)) continue;
        return;
      }
      const T alpha = rr / pap;
      kernels::axpy(kc, alpha, p, xp);  // x += alpha p
      kernels::axpy(kc, -alpha, ap, r);  // r -= alpha A p  (recurrence residual)
      if (opt.fault)  // the observer sees the residual's patterns
        kernels::with_patterns(r, [&](Vec<T>& v) {
          fault::touch_range(opt.fault, fault::Site::vector_entry, v.data(),
                             v.size());
        });
      T rr_new = dotp(r, r);
      fault::touch_scalar(opt.fault, fault::Site::dot_result, rr_new);
      if (!st::finite(rr_new)) {
        if (broke(it)) continue;
        return;
      }
      const T beta = rr_new / rr;
      kernels::xpby(kc, r, beta, p, p);  // p = r + beta p
      rr = rr_new;
    }
    rep.status = CgStatus::max_iterations;
    rep.iterations = opt.max_iter;
  };
  iterate();
  kernels::from_plane(xp, x);
  return rep;
}

/// Convenience wrapper for Dense matrices (adapts gemv to the spmv name).
/// Carries its own kernel context so kernels::apply routes the gemv through
/// the selected backend.
template <class T>
struct DenseAsOperator {
  const Dense<T>& A;
  kernels::Context ctx{};
  void spmv(const Vec<T>& x, Vec<T>& y) const { kernels::gemv(ctx, A, x, y); }
};

}  // namespace pstab::la
