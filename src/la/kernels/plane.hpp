// la::kernels planes — a solver's working vectors, decoded once per solve.
//
//   auto r = kernels::to_plane(kc, b);   // decodes when the Simd leg runs
//   kernels::axpy(kc, alpha, p, r);      // rounds, never encodes
//   kernels::from_plane(r, out);         // the one encode, at the end
//
// When the Simd leg runs for T at the solve's length (use_simd<T>(kc, n)),
// a Plane<T> holds the exact double value of every element: +0.0 for zero,
// qNaN for NaR, never -0.0.  dot, axpy, xpby and the CSR apply below then
// run the ISA's plane kernels (simd::PlaneKernels), which round in the f64
// domain and never encode.  Every finite Posit<16,1>/<32,2>/<32,3> value is
// exact in double (simd/f64core.hpp), so the bits are the pattern kernels'.
// Otherwise (no active vector ISA, the kill switch, telemetry on, a tiny n)
// the plane holds patterns and every call is the Vec<T> kernel; for formats
// without a vector leg Plane<T> is Vec<T> itself.  A solver written against
// Plane<T> therefore keeps one code path for every format.
//
// Whatever must see patterns (fault hooks, operators other than Csr) goes
// through with_patterns() or the encode -> call -> decode step in apply().
#pragma once

#include <type_traits>
#include <utility>
#include <vector>

#include "la/kernels/kernels.hpp"

namespace pstab::la::kernels {

/// A working vector of a format with a vector leg: decoded (k set) or
/// patterns, chosen once by to_plane and inherited by copies.
template <class T>
struct SimdPlane {
  const simd::Kernels<T>* k = nullptr;  // ISA table of a decoded plane
  std::vector<double> d;                // k set: the exact values
  Vec<T> v;                             // k null: the patterns
};

template <class T>
using Plane =
    std::conditional_t<simd::ops<T>::supported, SimdPlane<T>, Vec<T>>;

/// v as a plane: decoded when the Simd leg runs for T at v's length under c.
template <class T>
[[nodiscard]] Plane<T> to_plane(const Context& c, const Vec<T>& v) {
  if constexpr (simd::ops<T>::supported) {
    SimdPlane<T> p;
    if (use_simd<T>(c, v.size())) {
      p.k = &simd::ops<T>::table(*simd::active_tables());
      p.d.resize(v.size());
      p.k->decode_f64(v.data(), v.size(), p.d.data());
    } else {
      p.v = v;
    }
    return p;
  } else {
    (void)c;
    return v;
  }
}

/// A plane of p's kind and length holding zeros.
template <class T>
[[nodiscard]] Vec<T> zeros_like(const Vec<T>& p) {
  return Vec<T>(p.size(), scalar_traits<T>::zero());
}
template <class T>
[[nodiscard]] SimdPlane<T> zeros_like(const SimdPlane<T>& p) {
  SimdPlane<T> z;
  z.k = p.k;
  if (p.k)
    z.d.assign(p.d.size(), 0.0);
  else
    z.v = zeros_like(p.v);
  return z;
}

/// out = the patterns of p.
template <class T>
void from_plane(const Vec<T>& p, Vec<T>& out) {
  out = p;
}
template <class T>
void from_plane(const SimdPlane<T>& p, Vec<T>& out) {
  if (!p.k) {
    out = p.v;
    return;
  }
  out.resize(p.d.size());
  p.k->encode_f64(p.d.data(), p.d.size(), out.data());
}

/// Runs f(Vec<T>&) on p's patterns, which f may change: for a decoded plane
/// an encode -> call -> decode step.
template <class T, class F>
void with_patterns(Vec<T>& p, F&& f) {
  f(p);
}
template <class T, class F>
void with_patterns(SimdPlane<T>& p, F&& f) {
  if (!p.k) {
    f(p.v);
    return;
  }
  Vec<T> v;
  from_plane(p, v);
  f(v);
  p.d.resize(v.size());
  p.k->decode_f64(v.data(), v.size(), p.d.data());
}

template <class T>
[[nodiscard]] T dot(const Context& c, const SimdPlane<T>& x,
                    const SimdPlane<T>& y) {
  if (!x.k) return dot(c, x.v, y.v);
  return x.k->plane.dot(x.d.data(), y.d.data(), x.d.size());
}

/// The quire reads patterns, so a decoded plane is encoded for it.
template <class T>
[[nodiscard]] T dot_fused(const Context& c, const SimdPlane<T>& x,
                          const SimdPlane<T>& y) {
  if (!x.k) return dot_fused(c, x.v, y.v);
  Vec<T> xv, yv;
  from_plane(x, xv);
  from_plane(y, yv);
  return dot_fused(c, xv, yv);
}

/// y += alpha * x
template <class T>
void axpy(const Context& c, T alpha, const SimdPlane<T>& x, SimdPlane<T>& y) {
  if (!x.k) {
    axpy(c, alpha, x.v, y.v);
    return;
  }
  x.k->plane.axpy(alpha, x.d.data(), y.d.data(), x.d.size());
}

/// z = x + beta * y (z may alias x or y)
template <class T>
void xpby(const Context& c, const SimdPlane<T>& x, T beta,
          const SimdPlane<T>& y, SimdPlane<T>& z) {
  if (!x.k) {
    xpby(c, x.v, beta, y.v, z.v);
    return;
  }
  x.k->plane.xpby(x.d.data(), beta, y.d.data(), z.d.data(), x.d.size());
}

/// y = A * x.  A Csr runs the plane SpMV; any other operator sees patterns
/// through an encode -> apply -> decode step.
template <class Op, class T>
void apply(const Context& c, const Op& A, const SimdPlane<T>& x,
           SimdPlane<T>& y) {
  if (!x.k) {
    apply(c, A, x.v, y.v);
    return;
  }
  y.k = x.k;
  if constexpr (std::is_same_v<Op, Csr<T>>) {
    y.d.resize(static_cast<std::size_t>(A.rows()));
    detail::spmv_plane(*x.k, A, x.d.data(), y.d.data(),
                       [](std::size_t, std::size_t) {});
  } else {
    Vec<T> xv, yv;
    from_plane(x, xv);
    apply(c, A, xv, yv);
    y.d.resize(yv.size());
    x.k->decode_f64(yv.data(), yv.size(), y.d.data());
  }
}

}  // namespace pstab::la::kernels
