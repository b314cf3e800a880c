// Mixed-precision escalation for iterative refinement.
//
// The refinement drivers (la::mixed_ir<F>, la::lu_ir<F>) are templated on the
// factorization format F, so escalating "one precision tier up" changes a
// template argument -- it cannot live inside the solver.  escalate<F> wraps
// one solve per rung: when the solve comes back factorization_failed,
// diverged or max_iterations and ResilientOptions{enabled, escalate}
// allows, it re-runs the whole solve with F promoted along
//
//   Half -> Float32Emu -> double          (IEEE ladder)
//   BFloat16 -> Float32Emu -> double
//   Posit16_1 / Posit16_2 -> Posit32_2    (posit ladder)
//
// at most max_escalations rungs.  Each rung is recorded as an
// "escalate:<format>" RecoveryEvent prepended to the final report's recovery
// trail, so a corrected run is distinguishable from a first-try success.
// With recovery disabled this is exactly one solve in the requested format.
// ir_escalate and lu_ir_escalate put mixed_ir and lu_ir on it.
#pragma once

#include <string>
#include <type_traits>

#include "la/ir.hpp"
#include "la/lu_ir.hpp"

namespace pstab::resilience {

/// Next precision tier for the factorization format; `void` terminates the
/// ladder (double factors in the working precision already — nothing above).
template <class F>
struct NextTier {
  using type = void;
};
template <>
struct NextTier<Half> {
  using type = Float32Emu;
};
template <>
struct NextTier<BFloat16> {
  using type = Float32Emu;
};
template <>
struct NextTier<Float32Emu> {
  using type = double;
};
template <>
struct NextTier<Posit16_1> {
  using type = Posit32_2;
};
template <>
struct NextTier<Posit16_2> {
  using type = Posit32_2;
};

/// The ladder: `solve(std::type_identity<F>{}, rung)` runs one solve in
/// format F (rung 0 is the requested format) and returns its report;
/// `budget` rungs remain.
template <class F, class Solve>
auto escalate(const la::ResilientOptions& res, int budget, const Solve& solve,
              int rung = 0) {
  auto rep = solve(std::type_identity<F>{}, rung);
  // max_iterations counts as failure here: a tier that cannot contract within
  // the cap will not be saved by more of the same precision, and escalating
  // is what keeps an injected campaign free of hangs.
  const bool failed = rep.status == la::SolveStatus::factorization_failed ||
                      rep.status == la::SolveStatus::diverged ||
                      rep.status == la::SolveStatus::max_iterations;
  if (!failed || budget <= 0 || !res.enabled || !res.escalate) return rep;
  using G = typename NextTier<F>::type;
  if constexpr (std::is_void_v<G>) {
    return rep;
  } else {
    std::vector<la::RecoveryEvent> trail = std::move(rep.recovery);
    trail.push_back({rep.iterations,
                     std::string("escalate:") + scalar_traits<G>::name(),
                     double(res.max_escalations - budget + 1)});
    auto up = escalate<G>(res, budget - 1, solve, rung + 1);
    up.recovery.insert(up.recovery.begin(), trail.begin(), trail.end());
    return up;
  }
}

/// la::mixed_ir<F> on the ladder.  Escalation re-reads the factorization
/// input from the authoritative source: a Higham-scaled Ah_source is part of
/// the algorithm and is kept on every rung, while an unscaled one stands in
/// for the (possibly corrupted) low-precision cast buffer and is left behind
/// after rung 0 for a fresh cast from A.
template <class F>
la::IrReport ir_escalate(const la::Dense<double>& A, const la::Vec<double>& b,
                         la::Vec<double>& x, const la::IrOptions& opt = {},
                         const scaling::HighamScaling* hs = nullptr,
                         const la::Dense<double>* Ah_source = nullptr) {
  return escalate<F>(opt.resilience, opt.resilience.max_escalations,
                     [&](auto format, int rung) {
                       using G = typename decltype(format)::type;
                       return la::mixed_ir<G>(
                           A, b, x, opt, hs,
                           rung == 0 || hs ? Ah_source : nullptr);
                     });
}

/// la::lu_ir<F> on the ladder.  Equilibration (gs/As_source) is part of the
/// algorithm and is kept on every rung, like a Higham-scaled Ah_source.
template <class F>
la::LuIrReport lu_ir_escalate(const la::Dense<double>& A,
                              const la::Vec<double>& b, la::Vec<double>& x,
                              const la::IrOptions& opt = {},
                              const scaling::GeneralScaling* gs = nullptr,
                              const la::Dense<double>* As_source = nullptr) {
  return escalate<F>(opt.resilience, opt.resilience.max_escalations,
                     [&](auto format, int) {
                       using G = typename decltype(format)::type;
                       return la::lu_ir<G>(A, b, x, opt, gs, As_source);
                     });
}

}  // namespace pstab::resilience
