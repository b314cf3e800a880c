// Shared plumbing of the repository benchmark: options, metric lists,
// order statistics and the span recorder.  The workloads (paper_grid.cpp,
// large_cg.cpp, serve_mix.cpp) and the layer replays (layers.cpp) only call
// the library's public entry points; every span is recorded here, around
// those calls, never inside the library.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny inputs for the benchmark's own smoke test: every workload runs on
  // a few small matrices and a short schedule; digests come from the
  // "smoke" section of the expected-digest file.
  bool smoke = false;
  std::string digests_path;      // expected digests (see digests.txt)
  bool write_digests = false;    // print this run's digests instead of checking
  std::string trace_out;         // span dump written at exit (trace runs)
  bool print_schedule = false;   // serve_mix: print the schedule digest only
  // The metric names and units of BENCHMARK.json (--spec): the run must
  // print exactly end_to_end with --trace 0 and per_layer with --trace 1.
  std::vector<Metric> end_to_end, per_layer;
};

/// What one workload run reports.  `attempted`/`failed` count the timed
/// operations (grid cells, solves, serve requests) plus the output checks.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ---------------------------------------------------------------------------
// Order statistics

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Calls once() until `budget` seconds are spent, at least `min_calls`
/// times; another call starts only while the median call so far still fits.
/// Each result carries its own wall_s.
template <class F>
auto repeat_for(double budget, F&& once, std::size_t min_calls = 1) {
  std::vector<decltype(once())> out;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  do {
    out.push_back(once());
    walls.push_back(out.back().wall_s);
  } while (out.size() < min_calls ||
           secs(t0, Clock::now()) + median(walls) <= budget);
  return out;
}

// ---------------------------------------------------------------------------
// Spans

/// One recorded interval: name, start/end in seconds since the recorder's
/// epoch, the span that caused it (-1 = root) and the request it belongs to.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::string name;
  double start = 0, end = 0;
};

/// Process-wide span recorder.  Off unless --trace 1; when off, opening a
/// span costs one relaxed load.  Spans are kept in memory and written once,
/// at exit (write()).
class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  [[nodiscard]] double now() const { return secs(epoch_, Clock::now()); }

  std::int64_t next_id() { return next_.fetch_add(1) + 1; }
  void record(Span s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  /// Number of spans recorded so far (a mark for "spans since").
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  Tracer() = default;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> on_{false};
  std::atomic<std::int64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span: records [construction, destruction) when tracing is on.
class Scope {
 public:
  Scope(const char* name, std::int64_t parent = -1, std::uint64_t request = 0) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    s_.id = t.next_id();
    s_.parent = parent;
    s_.request = request;
    s_.name = name;
    s_.start = t.now();
    armed_ = true;
  }
  ~Scope() {
    if (!armed_) return;
    Tracer& t = Tracer::get();
    s_.end = t.now();
    t.record(std::move(s_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t id() const { return armed_ ? s_.id : -1; }

 private:
  Span s_;
  bool armed_ = false;
};

/// Per-name totals over a span set: count, total and self time (duration
/// minus the union of its children's intervals), and the durations.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0, self_s = 0;
  std::vector<double> durations;
};
[[nodiscard]] std::map<std::string, SpanStats> span_stats(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Digests

[[nodiscard]] std::string hex64(std::uint64_t h);
[[nodiscard]] std::uint64_t fnv(const std::string& s);

/// Expected digests from the committed file, keyed "<section> <cell>".
[[nodiscard]] std::map<std::string, std::string> load_digests(
    const std::string& path);

/// Compare `got` ("<section> <cell> <hex>" lines) against the file; returns
/// the number of lines missing or different (each is one failed check).
std::uint64_t check_digests(const Options& opt,
                            const std::vector<std::string>& got);

/// The metrics listed under `section` ("end_to_end" or "per_layer") of the
/// BENCHMARK.json at `path`, in file order, each with value 0; empty when
/// the file or the section cannot be read.
[[nodiscard]] std::vector<Metric> load_metric_spec(const std::string& path,
                                                   const std::string& section);

// ---------------------------------------------------------------------------
// Workloads and layer replays

Result run_paper_grid(const Options& opt);
Result run_large_cg(const Options& opt);
Result run_serve_mix(const Options& opt);

/// setup_s: the one-time process set-up (main() entry to the end of
/// lut::enable_defaults()) plus the median of the workload's set-up
/// repeats.  Prints both parts.
double setup_seconds(const std::vector<double>& reps);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace pbench
