// pstab_bench — the repository benchmark program.
//
//   pstab_bench --workload paper_grid|large_cg|serve_mix --seed N
//               --seconds S --trace 0|1 --digests FILE --spec BENCHMARK.json
//               [--smoke] [--write-digests] [--trace-out FILE]
//               [--print-schedule]
//
// Prints a host/config fingerprint, then (as its last stdout line) one JSON
// object {"correct","attempted","failed","metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 records spans around every public call the
// workload makes, replays the layers (layers.cpp) and reports the per-layer
// metrics plus the tracing overhead.  The metric names and units come from
// BENCHMARK.json, the one list of them; a run whose metrics differ fails.
// The environment policy (which PSTAB_* knobs are cleared, telemetry off)
// lives here too, so a direct invocation measures the same program as
// run.py's.  run.py builds and invokes this binary; README.md documents the
// workloads and the metric map.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/parallel_for.hpp"
#include "core/telemetry/telemetry.hpp"
#include "la/kernels/kernels.hpp"
#include "matrices/suite.hpp"
#include "posit/lut.hpp"

namespace pbench {

namespace {
double g_once_setup_s = 0;
}

double setup_seconds(const std::vector<double>& reps) {
  const double m = median(reps);
  std::printf("setup: once %.4f s + median of %zu repeats %.4f s\n",
              g_once_setup_s, reps.size(), m);
  return g_once_setup_s + m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string hex64(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::map<std::string, std::string> load_digests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string section, cell, hex;
    if (ls >> section >> cell >> hex) out[section + " " + cell] = hex;
  }
  return out;
}

std::uint64_t check_digests(const Options& opt,
                            const std::vector<std::string>& got) {
  if (opt.write_digests) {
    for (const auto& l : got) std::printf("%s\n", l.c_str());
    return 0;
  }
  const auto want = load_digests(opt.digests_path);
  std::uint64_t bad = 0;
  for (const auto& l : got) {
    std::istringstream ls(l);
    std::string section, cell, hex;
    ls >> section >> cell >> hex;
    const auto it = want.find(section + " " + cell);
    if (it == want.end() || it->second != hex) {
      ++bad;
      std::fprintf(stderr, "digest mismatch: %s (expected %s)\n", l.c_str(),
                   it == want.end() ? "none" : it->second.c_str());
    }
  }
  return bad;
}

std::vector<Metric> load_metric_spec(const std::string& path,
                                     const std::string& section) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The section is a flat array of objects; a metric object holds no
  // nested brackets, so the array ends at the first ']'.
  const auto at = text.find("\"" + section + "\"");
  if (at == std::string::npos) return {};
  const auto open = text.find('[', at);
  const auto close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  const std::string body = text.substr(open, close - open);
  static const std::regex obj(R"(\{[^{}]*\})");
  static const std::regex name(R"re("name"\s*:\s*"([^"]*)")re");
  static const std::regex unit(R"re("unit"\s*:\s*"([^"]*)")re");
  std::vector<Metric> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), obj);
       it != std::sregex_iterator(); ++it) {
    const std::string o = it->str();
    std::smatch n, u;
    if (std::regex_search(o, n, name) && std::regex_search(o, u, unit))
      out.push_back({n[1], 0.0, u[1]});
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_)
    std::fprintf(f,
                 "{\"id\":%" PRId64 ",\"parent\":%" PRId64
                 ",\"request\":%" PRIu64
                 ",\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n",
                 s.id, s.parent, s.request, s.name.c_str(), s.start, s.end);
  return std::fclose(f) == 0;
}

std::map<std::string, SpanStats> span_stats(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const auto& s : spans)
    if (s.parent >= 0) children[s.parent].push_back(&s);
  std::map<std::string, SpanStats> out;
  for (const auto& s : spans) {
    const double dur = s.end - s.start;
    // Self time: the duration minus the union of the child intervals.
    double covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      std::sort(iv.begin(), iv.end());
      double lo = 0, hi = -1;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_s += dur;
    st.self_s += dur - covered;
    st.durations.push_back(dur);
  }
  return out;
}

namespace {

std::uint64_t llc_bytes() {
  for (int idx = 4; idx >= 0; --idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lv(base + "/level"), sz(base + "/size");
    int level = 0;
    std::string size;
    if (!(lv >> level) || !(sz >> size) || size.empty()) continue;
    std::uint64_t v = std::strtoull(size.c_str(), nullptr, 10);
    const char unit = size.back();
    if (unit == 'K') v <<= 10;
    if (unit == 'M') v <<= 20;
    return v;
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? std::uint64_t(v) : 0;
}

/// Host/config fingerprint, printed with every result.
void print_fingerprint(const Options& opt) {
  namespace k = pstab::la::kernels;
  const char* note = k::simd::fallback_note();
  const k::Backend def = k::default_backend();
  const char* isa = k::simd::isa_name(k::simd::active_isa());
  // What Backend::Auto resolves to for the posit formats with vector legs:
  // the SIMD leg when an ISA is active, else the decoded-plane (batched)
  // kernels; f64/f32 always run the scalar loops.
  std::string resolved = def == k::Backend::Auto
                             ? (k::simd::active_isa() == k::simd::Isa::kScalar
                                    ? "batched"
                                    : std::string("simd:") + isa)
                             : k::to_string(def);
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"smoke\":%s,\"simd_isa\":\"%s\",\"fallback_note\":\"%s\","
      "\"auto_backend\":\"%s\",\"nproc\":%u,\"PSTAB_THREADS\":%d,"
      "\"PSTAB_SIZE_CAP\":%d,\"PSTAB_LARGE_SIZE_CAP\":%d,"
      "\"telemetry\":%s,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"llc_bytes\":%" PRIu64 "}\n",
      opt.workload.c_str(), opt.seed, opt.smoke ? "true" : "false", isa,
      note ? note : "", resolved.c_str(), std::thread::hardware_concurrency(),
      pstab::parallel_threads(), pstab::matrices::size_cap(),
      pstab::matrices::large_size_cap(),
      pstab::telemetry::active() ? "true" : "false", PSTAB_BENCH_COMPILER,
      PSTAB_BENCH_BUILD_TYPE, llc_bytes());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pstab_bench: %s\nusage: pstab_bench --workload "
               "paper_grid|large_cg|serve_mix --seed N --seconds S --trace "
               "0|1 --digests FILE --spec BENCHMARK.json [--smoke] "
               "[--write-digests] "
               "[--trace-out FILE] [--print-schedule]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace pbench

int main(int argc, char** argv) {
  using namespace pbench;
  const auto t_main = Clock::now();
  Options opt;
  std::string spec_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) opt.workload = argv[++i];
    else if (a == "--seed" && has)
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has)
      opt.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has)
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    else if (a == "--digests" && has) opt.digests_path = argv[++i];
    else if (a == "--trace-out" && has) opt.trace_out = argv[++i];
    else if (a == "--spec" && has) spec_path = argv[++i];
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--write-digests") opt.write_digests = true;
    else if (a == "--print-schedule") opt.print_schedule = true;
    else return usage(("bad argument '" + a + "'").c_str());
  }
  if (opt.workload != "paper_grid" && opt.workload != "large_cg" &&
      opt.workload != "serve_mix")
    return usage("unknown or missing --workload");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  const bool measures = !opt.write_digests && !opt.print_schedule;
  if (measures && opt.digests_path.empty())
    return usage("--digests is required");
  if (measures) {
    opt.end_to_end = load_metric_spec(spec_path, "end_to_end");
    opt.per_layer = load_metric_spec(spec_path, "per_layer");
    if (opt.end_to_end.empty() || opt.per_layer.empty())
      return usage("--spec must name a BENCHMARK.json with end_to_end and "
                   "per_layer metrics");
  }
  if (opt.write_digests && opt.workload == "serve_mix")
    return usage("--write-digests is for paper_grid and large_cg");
  if (opt.print_schedule && opt.workload != "serve_mix")
    return usage("--print-schedule is for serve_mix");

  // The program under test and its inputs are fixed by the benchmark, not by
  // the caller's environment: the default kernel backend, SIMD ISA and LUT
  // choice, no Matrix Market overrides or results directory, the default
  // size caps (tiny ones in smoke mode).  Only PSTAB_THREADS is the
  // caller's (run.py sets it to the CPUs it may use).
  for (const char* knob : {"PSTAB_KERNELS", "PSTAB_SIMD", "PSTAB_LUT",
                           "PSTAB_MTX_DIR", "PSTAB_RESULTS_DIR"})
    unsetenv(knob);
  if (opt.smoke) {
    setenv("PSTAB_SIZE_CAP", "32", 1);
    setenv("PSTAB_LARGE_SIZE_CAP", "2000", 1);
  } else {
    unsetenv("PSTAB_SIZE_CAP");
    unsetenv("PSTAB_LARGE_SIZE_CAP");
  }

  // Telemetry forces every kernel onto the scalar path (kernels.hpp
  // use_simd/use_batched), so a run with it on measures a different program.
  // The library default is off; refuse to run otherwise.
  if (pstab::telemetry::env_requested() || pstab::telemetry::active()) {
    std::fprintf(stderr, "pstab_bench: telemetry must be off (unset "
                         "PSTAB_TELEMETRY)\n");
    return 2;
  }

  // One-time process set-up, as `pstab` does it: the small-posit tables.
  pstab::lut::enable_defaults();
  g_once_setup_s = secs(t_main, Clock::now());

  print_fingerprint(opt);
  std::fflush(stdout);

  Tracer::get().enable(opt.trace);
  Result r;
  if (opt.workload == "paper_grid") r = run_paper_grid(opt);
  else if (opt.workload == "large_cg") r = run_large_cg(opt);
  else r = run_serve_mix(opt);
  if (opt.write_digests || opt.print_schedule) return 0;

  if (pstab::telemetry::active()) {
    std::fprintf(stderr, "pstab_bench: telemetry was switched on mid-run\n");
    return 2;
  }
  // The printed metrics must be exactly the ones BENCHMARK.json names.
  const std::vector<Metric>& want = opt.trace ? opt.per_layer : opt.end_to_end;
  bool same = want.size() == r.metrics.size();
  for (std::size_t i = 0; same && i < want.size(); ++i)
    same = std::find_if(r.metrics.begin(), r.metrics.end(), [&](const Metric& m) {
             return m.name == want[i].name && m.unit == want[i].unit;
           }) != r.metrics.end();
  if (!same) {
    std::fprintf(stderr, "pstab_bench: the %s metrics differ from %s\n",
                 opt.trace ? "per_layer" : "end_to_end", spec_path.c_str());
    return 2;
  }
  if (opt.trace && !opt.trace_out.empty() &&
      !Tracer::get().write(opt.trace_out))
    std::fprintf(stderr, "warning: cannot write %s\n", opt.trace_out.c_str());

  std::string js = "{\"correct\": ";
  js += r.failed == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
    js += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + buf +
          ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return r.attempted > 0 ? 0 : 1;
}
