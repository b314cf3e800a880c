// Exhaustive 8-bit validation of the batched kernels against the GMP
// oracle (mp/oracle.hpp): every nonzero, non-NaR pair (a, b) runs through a
// two-step batched dot — mul-round then add-round, the paper's §II-C
// per-operation rounding contract — and must match both the scalar kernels
// and an independently decoded, correctly rounded ground truth.  Long
// chained dots then pin the batched chain and the chunked-quire fused dot
// against an exact 512-bit accumulation rounded once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "la/csr.hpp"
#include "la/kernels/kernels.hpp"
#include "la/kernels/plane.hpp"
#include "mp/oracle.hpp"
#include "mp/mpreal.hpp"
#include "posit/posit.hpp"
#include "posit/quire.hpp"

namespace {

using namespace pstab;
namespace ker = pstab::la::kernels;

const ker::Context kScalar{ker::Backend::Scalar};
const ker::Context kBatched{ker::Backend::Batched};

/// Signed value of a pattern via the oracle's independent decoder (the
/// library decoder never touches this path).
template <int N, int ES>
mpf_class oracle_value(Posit<N, ES> p) {
  if (p.is_zero()) return mp::make(0.0);
  const bool neg = (p.bits() >> (N - 1)) & 1;
  const std::uint64_t mag = neg ? (-p).bits() : p.bits();
  const mpf_class v = mp::oracle_decode(mag, N, ES);
  return neg ? mpf_class(-v) : v;
}

/// All 8-bit pairs: dot([a], [b]) is one mul-round (the add against the zero
/// seed is exact), so scalar, batched, and oracle_round(exact product) must
/// agree pattern-for-pattern.
template <int ES>
void all_pairs_dot() {
  using P = Posit<8, ES>;
  for (unsigned ab = 0; ab < 256; ++ab) {
    const P a = P::from_bits(ab);
    if (a.is_nar() || a.is_zero()) continue;
    const mpf_class va = oracle_value(a);
    for (unsigned bb = 0; bb < 256; ++bb) {
      const P b = P::from_bits(bb);
      if (b.is_nar() || b.is_zero()) continue;
      const la::Vec<P> x{a}, y{b};
      const P ds = ker::dot(kScalar, x, y);
      const P db = ker::dot(kBatched, x, y);
      ASSERT_EQ(ds.bits(), db.bits())
          << "a=" << ab << " b=" << bb << " es=" << ES;
      const mpf_class exact = va * oracle_value(b);
      const P ref = mp::oracle_round<8, ES>(exact);
      ASSERT_EQ(db.bits(), ref.bits())
          << "a=" << ab << " b=" << bb << " es=" << ES;
    }
  }
}

TEST(KernelsExhaustive, AllPairsDotPosit8es0) { all_pairs_dot<0>(); }
TEST(KernelsExhaustive, AllPairsDotPosit8es2) { all_pairs_dot<2>(); }

/// Long chains: the batched chained dot must match the scalar chain bit for
/// bit, and the fused (chunked-quire) dot must equal the exact sum of
/// products rounded exactly once — independent of how the chunks split.
TEST(KernelsExhaustive, ChainedAndFusedDotVsExactSum) {
  using P = Posit<8, 2>;
  std::mt19937_64 rng(41);
  for (int rep = 0; rep < 64; ++rep) {
    const int n = 1 + int(rng() % 4096);
    la::Vec<P> x(n), y(n);
    mpf_class exact = mp::make(0.0);
    for (int i = 0; i < n; ++i) {
      // Nonzero, non-NaR patterns only: specials are covered elsewhere and
      // would poison the exact accumulation.
      do {
        x[i] = P::from_bits(rng() & 0xff);
      } while (x[i].is_nar() || x[i].is_zero());
      do {
        y[i] = P::from_bits(rng() & 0xff);
      } while (y[i].is_nar() || y[i].is_zero());
      exact += oracle_value(x[i]) * oracle_value(y[i]);
    }
    const P ds = ker::dot(kScalar, x, y);
    const P db = ker::dot(kBatched, x, y);
    ASSERT_EQ(ds.bits(), db.bits()) << "rep=" << rep << " n=" << n;

    const P fs = ker::dot_fused(kScalar, x, y);
    const P fb = ker::dot_fused(kBatched, x, y);
    ASSERT_EQ(fs.bits(), fb.bits()) << "rep=" << rep << " n=" << n;
    const P ref =
        exact == 0 ? P::zero() : mp::oracle_round<8, 2>(exact);
    ASSERT_EQ(fb.bits(), ref.bits()) << "rep=" << rep << " n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Backend::Simd exhaustive tier: every ISA the runner can execute is pinned
// against the scalar core — all-pairs 8-bit dot/axpy through the dispatch
// layer, full 16-bit decode/encode/mul_round pattern sweeps through the
// per-ISA kernel tables, long mixed-special chains and CSR SpMV for every
// supported format.  Bit-identity is the contract; any mismatch is a hard
// failure.

namespace simd = pstab::la::kernels::simd;
using pstab::detail::u64;
const ker::Context kSimd{ker::Backend::Simd};

class ForcedIsa {
 public:
  explicit ForcedIsa(simd::Isa i) : honored_(simd::force_isa(i)) {}
  ~ForcedIsa() { simd::clear_forced_isa(); }
  [[nodiscard]] bool honored() const { return honored_; }

 private:
  bool honored_;
};

std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> v;
  for (const simd::Isa i :
       {simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon})
    if (simd::available(i)) v.push_back(i);
  return v;
}

/// All 8-bit pairs (specials included) through the public dispatch layer:
/// Backend::Simd must match Backend::Scalar bit for bit whatever the active
/// ISA — 8-bit formats have no vector kernel, so this pins the degradation
/// path; the vector code itself is swept by the 16-bit tests below.
template <int ES>
void simd_all_pairs() {
  using P = Posit<8, ES>;
  const la::Vec<P> ypats = {P::from_bits(0x01), P::from_bits(0xC0),
                            P::from_bits(0x80), P::zero()};
  for (unsigned ab = 0; ab < 256; ++ab) {
    const P a = P::from_bits(ab);
    for (unsigned bb = 0; bb < 256; ++bb) {
      const P b = P::from_bits(bb);
      const la::Vec<P> x{a}, y{b};
      const P ds = ker::dot(kScalar, x, y);
      const P dv = ker::dot(kSimd, x, y);
      ASSERT_EQ(ds.bits(), dv.bits())
          << "dot a=" << ab << " b=" << bb << " es=" << ES;
      for (const P& yy : ypats) {
        la::Vec<P> us{yy}, uv{yy};
        ker::axpy(kScalar, a, x, us);
        ker::axpy(kSimd, a, x, uv);
        ASSERT_EQ(us[0].bits(), uv[0].bits())
            << "axpy alpha=" << ab << " x=" << bb << " es=" << ES;
      }
    }
  }
}

TEST(SimdExhaustive, AllPairsDotAxpyPosit8PerIsa) {
  auto isas = vector_isas();
  for (const simd::Isa isa : isas) {
    ForcedIsa f(isa);
    ASSERT_TRUE(f.honored());
    SCOPED_TRACE(simd::isa_name(isa));
    simd_all_pairs<0>();
    simd_all_pairs<2>();
  }
  {
    // And with the kill switch on: Simd context, scalar path.
    ForcedIsa f(simd::Isa::kScalar);
    simd_all_pairs<2>();
  }
}

/// Full 16-bit pattern space through one ISA's kernel table hooks:
/// decode_f64 must produce the exact scalar value (+0.0 for zero, NaN for
/// NaR), encode_f64 must round-trip every decoded value, and mul_round must
/// match the scalar product for every pattern against a partner spread.
void sweep_p16(const simd::IsaTables& t) {
  using P = Posit<16, 1>;
  constexpr int kAll = 1 << 16;
  std::vector<P> pats(kAll);
  for (int i = 0; i < kAll; ++i) pats[i] = P::from_bits(unsigned(i));
  std::vector<double> dec(kAll);
  t.p16.decode_f64(pats.data(), pats.size(), dec.data());
  std::vector<P> back(kAll);
  t.p16.encode_f64(dec.data(), dec.size(), back.data());
  for (int i = 0; i < kAll; ++i) {
    const P p = pats[i];
    if (p.is_nar()) {
      ASSERT_TRUE(std::isnan(dec[i])) << "pattern " << i;
    } else {
      // Every finite Posit<16,1> is exact in double, so to_double IS the
      // scalar-core decode; bitwise compare kills -0.0 leaks too.
      const double want = p.to_double();
      ASSERT_EQ(std::memcmp(&dec[i], &want, sizeof want), 0)
          << "pattern " << i << " decode " << dec[i] << " want " << want;
    }
    ASSERT_EQ(back[i].bits(), p.bits()) << "roundtrip pattern " << i;
  }

  // mul_round: all patterns x a partner spread covering both taper ends,
  // the golden zone, NaR and zero.
  const unsigned partners[] = {0x0001, 0x0002, 0x1000, 0x3000, 0x4000,
                               0x5678, 0x7FFF, 0x8000, 0x8001, 0xC000,
                               0xE222, 0xFFFF, 0x0000};
  std::vector<P> b(kAll), prod(kAll);
  for (const unsigned pb : partners) {
    std::fill(b.begin(), b.end(), P::from_bits(pb));
    t.p16.mul_round(pats.data(), b.data(), prod.data(), pats.size());
    for (int i = 0; i < kAll; ++i) {
      const P want = pats[i] * P::from_bits(pb);
      ASSERT_EQ(prod[i].bits(), want.bits())
          << "mul a=" << i << " b=" << pb;
    }
  }
}

TEST(SimdExhaustive, Posit16FullPatternSweepPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::IsaTables* t = simd::tables_for(isa);
    ASSERT_NE(t, nullptr);
    sweep_p16(*t);
  }
}

/// A plane must hold the exact value of every expected pattern: NaN for
/// NaR, +0.0 for zero — a -0.0 anywhere is a failure of its own.
template <class P>
void expect_plane(const std::vector<double>& d, const la::Vec<P>& want,
                  const char* what) {
  ASSERT_EQ(d.size(), want.size()) << what;
  for (std::size_t i = 0; i < d.size(); ++i) {
    ASSERT_FALSE(d[i] == 0.0 && std::signbit(d[i])) << what << " -0.0 at " << i;
    if (want[i].is_nar()) {
      ASSERT_TRUE(std::isnan(d[i])) << what << " slot " << i;
    } else {
      const double w = want[i].to_double();
      ASSERT_EQ(std::memcmp(&d[i], &w, sizeof w), 0)
          << what << " slot " << i << " got " << d[i] << " want " << w;
    }
  }
}

template <class P>
std::vector<double> decoded(const simd::Kernels<P>& k, const la::Vec<P>& v) {
  std::vector<double> d(v.size());
  k.decode_f64(v.data(), v.size(), d.data());
  return d;
}

/// Full 16-bit pattern space through one ISA's plane axpy/xpby: every
/// pattern as x, against scalars and y partners covering both taper ends,
/// the golden zone, NaR and zero, plus a y that permutes the whole space.
/// The result planes must be the scalar kernels' patterns, decoded.
void sweep_p16_planes(const simd::IsaTables& t) {
  using P = Posit<16, 1>;
  constexpr unsigned kAll = 1u << 16;
  la::Vec<P> x(kAll);
  for (unsigned i = 0; i < kAll; ++i) x[i] = P::from_bits(i);
  const auto xd = decoded(t.p16, x);
  const unsigned partners[] = {0x0001, 0x0002, 0x1000, 0x3000, 0x4000,
                               0x5678, 0x7FFF, 0x8000, 0x8001, 0xC000,
                               0xE222, 0xFFFF, 0x0000};
  std::vector<la::Vec<P>> ys;
  for (const unsigned pb : partners) ys.emplace_back(kAll, P::from_bits(pb));
  ys.emplace_back(kAll);
  for (unsigned i = 0; i < kAll; ++i)  // odd multiplier: a bijection
    ys.back()[i] = P::from_bits((i * 40503u + 12345u) & 0xFFFFu);

  for (const unsigned pa : partners) {
    const P a = P::from_bits(pa);
    SCOPED_TRACE(pa);
    for (const auto& y : ys) {
      la::Vec<P> want = y;
      ker::axpy(kScalar, a, x, want);
      auto yd = decoded(t.p16, y);
      t.p16.plane.axpy(a, xd.data(), yd.data(), kAll);
      expect_plane(yd, want, "axpy");

      ker::xpby(kScalar, x, a, y, want);
      const auto ydd = decoded(t.p16, y);
      std::vector<double> zd(kAll);
      t.p16.plane.xpby(xd.data(), a, ydd.data(), zd.data(), kAll);
      expect_plane(zd, want, "xpby");
      // CG's p = r + beta p: z aliases y.
      zd = ydd;
      t.p16.plane.xpby(xd.data(), a, zd.data(), zd.data(), kAll);
      expect_plane(zd, want, "xpby z=y");
    }
  }
}

TEST(SimdExhaustive, Posit16PlaneAxpyXpbySweepPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::IsaTables* t = simd::tables_for(isa);
    ASSERT_NE(t, nullptr);
    sweep_p16_planes(*t);
  }
}

/// Long chained dots and strided update-chains with specials mixed in, for
/// every vector format on every ISA — the band-exit, taper-absorption and
/// NaR paths of the FP chain all fire at these lengths.
template <class P>
void simd_long_chains(unsigned seed) {
  std::mt19937_64 rng(seed);
  for (int rep = 0; rep < 48; ++rep) {
    const int n = 1 + int(rng() % 4096);
    la::Vec<P> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      x[i] = P::from_bits(rng() & ((u64(1) << P::nbits) - 1));
      y[i] = P::from_bits(rng() & ((u64(1) << P::nbits) - 1));
      if (rng() % 97 == 0) x[i] = P::nar();
      if (rng() % 131 == 0) y[i] = P::zero();
    }
    const P ds = ker::dot(kScalar, x, y);
    const P dv = ker::dot(kSimd, x, y);
    ASSERT_EQ(ds.bits(), dv.bits()) << "rep=" << rep << " n=" << n;

    const P seedv = P::from_bits(rng() & ((u64(1) << P::nbits) - 1));
    for (const bool sub : {false, true}) {
      const P cs = ker::update_chain(kScalar, seedv, x.data(), 1, y.data(), 1,
                                     std::size_t(n), sub);
      const P cv = ker::update_chain(kSimd, seedv, x.data(), 1, y.data(), 1,
                                     std::size_t(n), sub);
      ASSERT_EQ(cs.bits(), cv.bits()) << "rep=" << rep << " n=" << n;
    }
  }
}

TEST(SimdExhaustive, LongChainsPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    ASSERT_TRUE(f.honored());
    SCOPED_TRACE(simd::isa_name(isa));
    simd_long_chains<Posit<16, 1>>(0xA11CE);
    simd_long_chains<Posit<32, 2>>(0xB0B);
    simd_long_chains<Posit<32, 3>>(0xC0DE);
  }
}

/// Long plane dots with NaR and zero mixed in, plus runs that cancel
/// exactly (x, -x against the same y) so the chain passes through zero:
/// plane dot must return the scalar chain's pattern.
template <class P>
void plane_long_chains(const simd::Kernels<P>& k, unsigned seed) {
  std::mt19937_64 rng(seed);
  constexpr u64 kMask = (u64(1) << P::nbits) - 1;
  for (int rep = 0; rep < 48; ++rep) {
    const int n = 1 + int(rng() % 4096);
    la::Vec<P> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      x[i] = P::from_bits(rng() & kMask);
      y[i] = P::from_bits(rng() & kMask);
      if (i > 0 && rng() % 7 == 0) {
        x[i] = -x[i - 1];
        y[i] = y[i - 1];
      }
      if (rng() % 97 == 0) x[i] = P::nar();
      if (rep % 2 == 0 && x[i].is_nar()) x[i] = P::zero();  // NaR-free half
      if (rng() % 131 == 0) y[i] = P::zero();
    }
    const P want = ker::dot(kScalar, x, y);
    const auto xd = decoded(k, x), yd = decoded(k, y);
    const P got = k.plane.dot(xd.data(), yd.data(), xd.size());
    ASSERT_EQ(want.bits(), got.bits()) << "rep=" << rep << " n=" << n;
  }
}

TEST(SimdExhaustive, PlaneDotLongChainsPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::IsaTables* t = simd::tables_for(isa);
    ASSERT_NE(t, nullptr);
    plane_long_chains(t->p16, 0xD07A);
    plane_long_chains(t->p32, 0xD07B);
    plane_long_chains(t->p32_3, 0xD07C);
  }
}

/// Sets PSTAB_THREADS for one scope (parallel_tiles re-reads it per call).
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* v) {
    const char* old = std::getenv("PSTAB_THREADS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv("PSTAB_THREADS", v, 1);
  }
  ~ThreadsEnv() {
    if (had_)
      setenv("PSTAB_THREADS", saved_.c_str(), 1);
    else
      unsetenv("PSTAB_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

/// One operand pattern: mostly golden-zone values (long in-band chains),
/// else the full pattern space, with NaR, zero and taper magnitudes (the
/// few patterns next to ±minpos / ±maxpos) mixed in.
template <class P>
P csr_pattern(std::mt19937_64& rng) {
  constexpr u64 kMask = (u64(1) << P::nbits) - 1;
  constexpr u64 kMaxpos = (u64(1) << (P::nbits - 1)) - 1;
  switch (rng() % 16) {
    case 0:
      return rng() % 6 == 0 ? P::nar() : P::zero();
    case 1: {
      const u64 b = rng() & 1 ? 1 + rng() % 8 : kMaxpos - rng() % 8;
      const P t = P::from_bits(b);
      return rng() & 1 ? -t : t;
    }
    case 2:
    case 3:
      return P::from_bits(rng() & kMask);
    default:
      return P::from_double(std::ldexp(double(rng() % 2001) - 1000.0, -9));
  }
}

/// A random CSR matrix in format P: row lengths straddle the 2/4/8-lane
/// edges (empty rows included); now and then a run of a few long rows
/// leaves too few rows per product block for the lanes, and some rows
/// outrun the block (2048 products) altogether.  Every stored value is an
/// exact pattern from csr_pattern.
template <class P>
la::Csr<P> random_csr(int rows, int cols, std::mt19937_64& rng) {
  static constexpr int kShort[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17};
  static constexpr int kLong[] = {257, 511, 700, 2047, 2048, 2049, 4500};
  std::vector<std::tuple<int, int, double>> trips;
  std::vector<P> want;
  int long_run = 0;  // rows left in the current run of long rows
  for (int i = 0; i < rows; ++i) {
    if (long_run == 0 && rng() % 512 == 0) long_run = 1 + int(rng() % 6);
    int len = long_run > 0 ? kLong[rng() % std::size(kLong)]
                           : kShort[rng() % std::size(kShort)];
    if (long_run > 0) --long_run;
    len = std::min(len, cols);
    std::set<int> cs;
    while (int(cs.size()) < len) cs.insert(int(rng() % u64(cols)));
    for (const int c : cs) {
      const P v = csr_pattern<P>(rng);
      trips.emplace_back(i, c, v.to_double());
      want.push_back(v);
    }
  }
  auto A = la::Csr<P>::from_triplets(rows, cols, std::move(trips));
  // Every posit value (NaR as NaN) survives the double round trip.
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(A.values()[k].bits(), want[k].bits()) << "k=" << k;
  return A;
}

/// CSR SpMV, Backend::Simd against Backend::Scalar, across row counts that
/// straddle the row tile and the parallel threshold, at one and several
/// worker threads (row tiles are fixed, so the bytes must not move).
template <class P>
void simd_csr_spmv(unsigned seed) {
  std::mt19937_64 rng(seed);
  const int kRowCounts[] = {1,
                            ker::kSparseRowTile - 1,
                            ker::kSparseRowTile + 1,
                            ker::kParMinSparseRows - 1,
                            ker::kParMinSparseRows,
                            ker::kParMinSparseRows + ker::kSparseRowTile + 3};
  for (const int rows : kRowCounts) {
    const int cols = rows + 7;
    const auto A = random_csr<P>(rows, cols, rng);
    la::Vec<P> x(static_cast<std::size_t>(cols));
    for (auto& v : x) v = csr_pattern<P>(rng);
    la::Vec<P> ys;
    ker::spmv(kScalar, A, x, ys);
    for (const char* threads : {"1", "4"}) {
      ThreadsEnv env(threads);
      la::Vec<P> yv;
      ker::spmv(kSimd, A, x, yv);
      ASSERT_EQ(yv.size(), ys.size());
      for (std::size_t i = 0; i < ys.size(); ++i)
        ASSERT_EQ(ys[i].bits(), yv[i].bits())
            << "rows=" << rows << " threads=" << threads << " row " << i;
    }
  }
}

TEST(SimdExhaustive, CsrSpmvPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    ASSERT_TRUE(f.honored());
    SCOPED_TRACE(simd::isa_name(isa));
    simd_csr_spmv<Posit<16, 1>>(0x5b1);
    simd_csr_spmv<Posit<32, 2>>(0x5b2);
    simd_csr_spmv<Posit<32, 3>>(0x5b3);
  }
}

/// Plane CSR SpMV against the scalar (pattern) SpMV: one ISA's
/// spmv_range over all rows and over two ranges split at an odd row, then
/// the tiled kernels::apply on planes at one and several worker threads.
/// Every result plane holds the scalar patterns' exact values, no -0.0.
template <class P>
void plane_csr_spmv(const simd::Kernels<P>& k, unsigned seed) {
  std::mt19937_64 rng(seed);
  const int kRowCounts[] = {1, 9, ker::kSparseRowTile + 1,
                            ker::kParMinSparseRows + ker::kSparseRowTile + 3};
  for (const int rows : kRowCounts) {
    const int cols = rows + 7;
    const auto A = random_csr<P>(rows, cols, rng);
    la::Vec<P> x(static_cast<std::size_t>(cols));
    for (auto& v : x) v = csr_pattern<P>(rng);
    la::Vec<P> want;
    ker::spmv(kScalar, A, x, want);
    const auto xd = decoded(k, x);
    const P* val = A.values().data();
    const int* col = A.col_idx().data();
    const int* ptr = A.row_ptr().data();
    std::vector<double> yd(static_cast<std::size_t>(rows));
    k.plane.spmv_range(val, col, ptr, xd.data(), yd.data(), 0, rows);
    expect_plane(yd, want, "spmv_range");
    const int mid = std::min(rows / 2 | 1, rows);
    std::vector<double> ys(static_cast<std::size_t>(rows));
    k.plane.spmv_range(val, col, ptr, xd.data(), ys.data(), 0, mid);
    k.plane.spmv_range(val, col, ptr, xd.data(), ys.data(), mid, rows);
    expect_plane(ys, want, "split spmv_range");
    for (const char* threads : {"1", "4"}) {
      ThreadsEnv env(threads);
      const auto xp = ker::to_plane(kSimd, x);
      ASSERT_NE(xp.k, nullptr);
      auto yp = ker::zeros_like(xp);
      ker::apply(kSimd, A, xp, yp);
      expect_plane(yp.d, want, threads);
    }
  }
}

TEST(SimdExhaustive, PlaneCsrSpmvPerIsa) {
  for (const simd::Isa isa : vector_isas()) {
    ForcedIsa f(isa);
    ASSERT_TRUE(f.honored());
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::IsaTables* t = simd::tables_for(isa);
    plane_csr_spmv(t->p16, 0x9b1);
    plane_csr_spmv(t->p32, 0x9b2);
    plane_csr_spmv(t->p32_3, 0x9b3);
  }
}

}  // namespace
