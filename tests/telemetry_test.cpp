// Telemetry layer: directed event-classification checks for posits and
// SoftFloats, randomized 16-bit validation against the GMP oracle, solver
// trace spans, thread-count invariance of counters, and determinism of the
// JSON artifacts.  (The all-pairs 8-bit sweep is telemetry_exhaustive_test.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"
#include "ieee/softfloat.hpp"
#include "la/cg.hpp"
#include "matrices/suite.hpp"
#include "mp/oracle.hpp"
#include "posit/posit.hpp"

namespace {

using namespace pstab;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::reset();
    telemetry::set_enabled(true);
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset();
  }
};

// ---------------------------------------------------------------------------
// Directed posit events (operands built with from_bits so no conversion
// encode pollutes the counters).

TEST_F(TelemetryTest, PositOpsAreCounted) {
  using P = Posit<8, 0>;
  const P one = P::one();
  (void)(one + one);
  (void)(one - one);
  (void)(one * one);
  (void)(one / one);
  (void)sqrt(one);
  (void)reciprocal(one);
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c[telemetry::Event::add], 1u);
  EXPECT_EQ(c[telemetry::Event::sub], 1u);
  // reciprocal delegates to div, so div counts twice.
  EXPECT_EQ(c[telemetry::Event::mul], 1u);
  EXPECT_EQ(c[telemetry::Event::div], 2u);
  EXPECT_EQ(c[telemetry::Event::sqrt], 1u);
  EXPECT_EQ(c[telemetry::Event::recip], 1u);
  EXPECT_EQ(c[telemetry::Event::nar_produced], 0u);
}

TEST_F(TelemetryTest, PositOverflowSaturation) {
  using P = Posit<8, 0>;
  const P m = P::maxpos();  // 2^6 for (8,0)
  EXPECT_EQ((m * m).bits(), P::maxpos().bits());
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c[telemetry::Event::overflow_sat], 1u);
  EXPECT_EQ(c[telemetry::Event::underflow_sat], 0u);
  // Unrounded scale 12 -> regime of 14 bits, clamped to N-1 = 7.
  EXPECT_EQ(c.regime_hist[7], 1u);
  EXPECT_EQ(c.regime_total(), 1u);
}

TEST_F(TelemetryTest, PositUnderflowSaturation) {
  using P = Posit<8, 0>;
  const P m = P::minpos();
  EXPECT_EQ((m * m).bits(), P::minpos().bits());
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c[telemetry::Event::underflow_sat], 1u);
  EXPECT_EQ(c[telemetry::Event::overflow_sat], 0u);
}

TEST_F(TelemetryTest, PositNarProduction) {
  using P = Posit<8, 0>;
  EXPECT_TRUE((P::one() / P::zero()).is_nar());
  (void)sqrt(P::from_bits(0xC0));  // -1
  // NaR-in, NaR-out is propagation, not production.
  EXPECT_TRUE((P::nar() + P::one()).is_nar());
  EXPECT_TRUE((P::nar() / P::one()).is_nar());
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c[telemetry::Event::nar_produced], 2u);
  EXPECT_EQ(c[telemetry::Event::div], 2u);
  EXPECT_EQ(c[telemetry::Event::sqrt], 1u);
  EXPECT_EQ(c[telemetry::Event::add], 1u);
  // None of those paths reaches the encoder.
  EXPECT_EQ(c.regime_total(), 0u);
}

TEST_F(TelemetryTest, PositExactCancellationSkipsEncode) {
  using P = Posit<8, 0>;
  const P x = P::from_bits(0x34);
  EXPECT_TRUE((x - x).is_zero());
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c[telemetry::Event::sub], 1u);
  EXPECT_EQ(c.regime_total(), 0u);
}

TEST_F(TelemetryTest, PositRegimeHistogram) {
  using P = Posit<8, 0>;
  const P one = P::one();
  (void)(one * one);  // 1.0: scale 0 -> regime "10" = 2 bits
  const P four = P::from_bits(0x70);
  (void)(four * four);  // 16: scale 4 -> regime 6 bits
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c.regime_hist[2], 1u);
  EXPECT_EQ(c.regime_hist[6], 1u);
  EXPECT_EQ(c.regime_total(), 2u);
}

TEST_F(TelemetryTest, PositFmaCountsItsParts) {
  using P = Posit<16, 1>;
  using st = scalar_traits<P>;
  (void)st::fma(P::one(), P::one(), P::one());
  const auto c = telemetry::snapshot_format("Posit(16,1)");
  EXPECT_EQ(c[telemetry::Event::fma], 1u);
  EXPECT_EQ(c[telemetry::Event::mul], 1u);
  EXPECT_EQ(c[telemetry::Event::add], 1u);
}

TEST_F(TelemetryTest, NothingRecordedWhileDisabled) {
  telemetry::set_enabled(false);
  using P = Posit<8, 0>;
  (void)(P::maxpos() * P::maxpos());
  (void)(P::one() / P::zero());
  telemetry::set_enabled(true);
  const auto c = telemetry::snapshot_format("Posit(8,0)");
  EXPECT_EQ(c.total_ops(), 0u);
  EXPECT_EQ(c.regime_total(), 0u);
}

// ---------------------------------------------------------------------------
// SoftFloat events.

TEST_F(TelemetryTest, HalfOverflowAndNan) {
  const Half big = Half::from_double(60000.0);
  EXPECT_TRUE((big * big).is_inf());
  const Half inf = big * big;
  EXPECT_TRUE((inf - inf).is_nan());
  EXPECT_TRUE((Half::from_double(0.0) / Half::from_double(0.0)).is_nan());
  const auto c = telemetry::snapshot_format("Float16");
  EXPECT_EQ(c[telemetry::Event::overflow_sat], 2u);  // big*big evaluated twice
  EXPECT_EQ(c[telemetry::Event::nan_produced], 2u);  // inf-inf and 0/0
  EXPECT_EQ(c[telemetry::Event::mul], 2u);
  EXPECT_EQ(c[telemetry::Event::sub], 1u);
  EXPECT_EQ(c[telemetry::Event::div], 1u);
}

TEST_F(TelemetryTest, HalfSubnormalAndUnderflow) {
  const Half a = Half::from_double(0.01);
  const Half b = Half::from_double(0.001);
  (void)(a * b);  // ~1e-5 < 2^-14: subnormal result
  const Half tiny = Half::from_double(6e-8);  // ~minpos subnormal
  (void)(tiny * tiny);                        // rounds to zero: underflow
  const auto c = telemetry::snapshot_format("Float16");
  EXPECT_GE(c[telemetry::Event::subnormal], 1u);
  EXPECT_GE(c[telemetry::Event::underflow_sat], 1u);
}

// ---------------------------------------------------------------------------
// Randomized 16-bit validation against the GMP oracle: replay each sampled
// operation in 512-bit arithmetic and re-derive the event classification
// (overflow iff |exact| > maxpos, underflow iff 0 < |exact| < minpos, regime
// length from floor(log2 |exact|)) without using the library's encoder.

template <int N, int ES>
struct ExpectedEvents {
  std::uint64_t over = 0, under = 0;
  std::uint64_t regime[telemetry::kRegimeBuckets] = {};
  std::uint64_t encodes = 0;

  void classify(const mpf_class& r, const mpf_class& maxv,
                const mpf_class& minv) {
    if (r == 0) return;  // exact zero result skips the encoder
    ++encodes;
    const mpf_class ax = r < 0 ? mpf_class(-r) : r;
    if (ax > maxv) ++over;
    if (ax < minv) ++under;
    long exp = 0;
    (void)mpf_get_d_2exp(&exp, ax.get_mpf_t());  // ax in [2^(exp-1), 2^exp)
    const int scale = static_cast<int>(exp) - 1;
    const int k = scale >> ES;
    int reg = k >= 0 ? k + 2 : 1 - k;
    if (reg > N - 1) reg = N - 1;
    ++regime[reg];
  }
};

TEST_F(TelemetryTest, RandomizedPosit16MatchesOracleClassification) {
  using P = Posit<16, 1>;
  const mpf_class maxv = mp::oracle_decode(P::maxpos().bits(), 16, 1);
  const mpf_class minv = mp::oracle_decode(1, 16, 1);

  std::mt19937 rng(20260806);
  ExpectedEvents<16, 1> exp;
  std::uint64_t nar_produced = 0;
  const int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t) {
    const P a = P::from_bits(rng() & 0xffffu);
    const P b = P::from_bits(rng() & 0xffffu);
    const bool nar = a.is_nar() || b.is_nar();
    const mpf_class va = nar ? mpf_class(0)
                             : (a.is_negative() ? mpf_class(-mp::oracle_decode(
                                                      (-a).bits(), 16, 1))
                                                : mp::oracle_decode(a.bits(), 16, 1));
    const mpf_class vb = nar ? mpf_class(0)
                             : (b.is_negative() ? mpf_class(-mp::oracle_decode(
                                                      (-b).bits(), 16, 1))
                                                : mp::oracle_decode(b.bits(), 16, 1));
    (void)(a + b);
    if (!nar && !a.is_zero() && !b.is_zero())
      exp.classify(va + vb, maxv, minv);
    (void)(a - b);
    if (!nar && !a.is_zero() && !b.is_zero())
      exp.classify(va - vb, maxv, minv);
    (void)(a * b);
    if (!nar && !a.is_zero() && !b.is_zero())
      exp.classify(va * vb, maxv, minv);
    (void)(a / b);
    if (!nar && b.is_zero()) ++nar_produced;
    if (!nar && !a.is_zero() && !b.is_zero())
      exp.classify(va / vb, maxv, minv);
  }

  const auto c = telemetry::snapshot_format("Posit(16,1)");
  EXPECT_EQ(c[telemetry::Event::add], std::uint64_t(kTrials));
  EXPECT_EQ(c[telemetry::Event::sub], std::uint64_t(kTrials));
  EXPECT_EQ(c[telemetry::Event::mul], std::uint64_t(kTrials));
  EXPECT_EQ(c[telemetry::Event::div], std::uint64_t(kTrials));
  EXPECT_EQ(c[telemetry::Event::nar_produced], nar_produced);
  EXPECT_EQ(c[telemetry::Event::overflow_sat], exp.over);
  EXPECT_EQ(c[telemetry::Event::underflow_sat], exp.under);
  EXPECT_EQ(c.regime_total(), exp.encodes);
  for (int r = 0; r < telemetry::kRegimeBuckets; ++r)
    EXPECT_EQ(c.regime_hist[r], exp.regime[r]) << "regime bucket " << r;
}

// ---------------------------------------------------------------------------
// Traces.

TEST(TraceTest, NullTraceSpanIsANoOp) {
  telemetry::TraceSpan span(nullptr, "phase");
  span.close();  // must not crash
}

TEST(TraceTest, SpansAccumulatePhases) {
  telemetry::Trace tr;
  {
    telemetry::TraceSpan a(&tr, "setup");
  }
  {
    telemetry::TraceSpan b(&tr, "iterate");
  }
  {
    telemetry::TraceSpan c(&tr, "iterate");
    c.close();
    c.close();  // idempotent
  }
  ASSERT_EQ(tr.phases.size(), 2u);
  EXPECT_EQ(tr.phases[0].name, "setup");
  EXPECT_EQ(tr.phases[0].calls, 1);
  EXPECT_EQ(tr.phases[1].name, "iterate");
  EXPECT_EQ(tr.phases[1].calls, 2);
  EXPECT_GE(tr.phases[1].seconds, 0.0);
}

TEST(TraceTest, MergeCombinesResidualsAndPhases) {
  telemetry::Trace a, b;
  a.residual(1.0);
  b.residual(0.5);
  a.phase("solve").seconds = 1.0;
  b.phase("solve").seconds = 2.0;
  b.phase("extra").calls = 3;
  a.merge(b);
  EXPECT_EQ(a.residuals.size(), 2u);
  EXPECT_DOUBLE_EQ(a.phase("solve").seconds, 3.0);
  EXPECT_EQ(a.phase("extra").calls, 3);
}

TEST(TraceTest, CgRecordsTrace) {
  const auto& m = matrices::suite_matrix("bcsstk02");
  const auto A = m.csr.cast<double>();
  const auto b = la::kernels::from_double_vec<double>(matrices::paper_rhs(m.dense));
  la::Vec<double> x;
  la::CgOptions opt;
  opt.record_trace = true;
  opt.record_history = true;
  const auto rep = la::cg_solve(A, b, x, opt);
  ASSERT_NE(rep.trace, nullptr);
  EXPECT_EQ(rep.trace->residuals.size(), rep.history.size());
  ASSERT_EQ(rep.trace->phases.size(), 2u);
  EXPECT_EQ(rep.trace->phases[0].name, "setup");
  EXPECT_EQ(rep.trace->phases[1].name, "iterate");
  // Without the flag no trace is allocated (zero-cost default).
  la::CgOptions off;
  const auto rep2 = la::cg_solve(A, b, x, off);
  EXPECT_EQ(rep2.trace, nullptr);
}

// ---------------------------------------------------------------------------
// Thread-count invariance + artifact determinism: the same experiment under
// PSTAB_THREADS=1 and =8 must yield identical integer counters and a
// byte-identical JSON document.

class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* v) {
    const char* old = std::getenv("PSTAB_THREADS");
    if (old) saved_ = old;
    had_ = old != nullptr;
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

TEST_F(TelemetryTest, CountersAreThreadCountInvariant) {
  const std::vector<const matrices::GeneratedMatrix*> suite = {
      &matrices::suite_matrix("bcsstk02"), &matrices::suite_matrix("lund_b")};
  const core::SolveRequest req;

  const auto run = [&](const char* threads) {
    ThreadsEnv env(threads);
    telemetry::reset();
    const auto rows = core::run_suite(suite, core::run_cg_experiment, req);
    return core::results_json("cg", rows, req);
  };

  const std::string doc1 = run("1");
  const auto counters1 = telemetry::snapshot_format("Posit(32,2)");
  const std::string doc8 = run("8");
  const auto counters8 = telemetry::snapshot_format("Posit(32,2)");

  ASSERT_GT(counters1.total_ops(), 0u);
  EXPECT_EQ(counters1.events, counters8.events);
  EXPECT_EQ(counters1.regime_hist, counters8.regime_hist);
  EXPECT_EQ(doc1, doc8);
}

// ---------------------------------------------------------------------------
// JSON writer.

TEST(JsonWriterTest, EscapesAndFormats) {
  core::JsonWriter w;
  w.begin_object();
  w.key("s").value(std::string("a\"b\\c\nd"));
  w.key("nan").value(std::numeric_limits<double>::quiet_NaN());
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.key("pi").value(0.1);
  w.key("n").value(42);
  w.key("u").value(std::uint64_t(1) << 60);
  w.key("t").value(true);
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().key("k").value("v").end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"nan\":null,\"inf\":null,"
            "\"pi\":0.10000000000000001,\"n\":42,\"u\":1152921504606846976,"
            "\"t\":true,\"arr\":[1,2],\"obj\":{\"k\":\"v\"}}");
}

TEST(JsonWriterTest, EmptyContainers) {
  core::JsonWriter w;
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("o").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

}  // namespace
