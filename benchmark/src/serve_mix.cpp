// serve_mix: open-loop Poisson arrivals into one in-process serve::Engine.
//
// Every request travels the protocol path a `pstab serve` client sees:
// pre-serialized pstab-serve-v1 JSON -> serve::request_from_json ->
// Engine::submit -> serve::response_json, timed from the moment the request
// was due to be sent (so a stall also charges the requests queued behind
// it).  The main thread is the load generator; the engine gets the other
// nproc - 1 threads.
//
// The mix (request_classes below) gives the five solvers of the serve
// surface equal shares: in every 100 requests, kRepeatSlots (15) are exact
// repeats of an earlier one (memo hits or coalesced) and each solver gets
// kSolverSlots (17) of the other 85.  cg / cholesky / ir run on every
// Table I matrix of order below kMaxOrder, plain and rescaled; lu_ir /
// gmres_ir on every general-suite matrix below the same order, plain and
// equilibrated, with factor formats f16, p16_1 and p32_2 and dd and quire
// residuals.  The shares and the order bound are assumptions of the
// benchmark, not measured traffic.  Each request reuses a family's
// batch_key with a fresh rhs_seed, so the response memo misses while the
// matrix / equilibration / factorization artifacts hit.
// Set-up builds every artifact the mix uses once (warm_up), so the timed
// phases see a warm artifact cache; cold builds are timed in set-up and per
// artifact kind in the traced cache replay.
//
// Phases: kRefRate for 45% of --seconds (serve_p50_ms / serve_p90_ms), then
// the fixed rate ladder kLadder, kRungShare of --seconds per rung (long
// enough for a 25% overload to push p90 past the limit), stopping one rung
// after the first that misses the limit.  A rung passes when its p90
// (refused requests count as missing) is within kLimitS, nothing was refused
// and the backlog left when its last request was sent is within what the
// limit allows (rate x limit).  serve_max_rps is the engine's capacity
// measured on the rung after the first miss (see run_serve_mix).
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "layers.hpp"
#include "matrices/suite.hpp"
#include "scaling/scaling.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"

namespace pbench {

namespace {

using pstab::core::Solver;
using pstab::core::SolveRequest;

constexpr double kRefRate = 30.0;     // requests/s, the reference rate
constexpr double kLimitS = 0.400;     // p90 latency limit of the ladder
constexpr int kRepeatSlots = 15;      // exact repeats per deck of 100
constexpr int kSolverSlots = 17;      // per solver: (100 - 15) / 5
constexpr int kMaxOrder = 150;        // matrices of order n < 150
constexpr double kLadder[] = {40, 50, 63, 79, 100, 126, 158, 200};
constexpr double kRefShare = 0.45;    // of --seconds, reference phase
constexpr double kRungShare = 0.08;   // of --seconds, per ladder rung
constexpr std::size_t kMaxQueue = 64; // in-flight bound (overload -> refusal)
constexpr double kRefusedLatency = 1e9;  // a refusal misses any limit

/// One request class: its slots per deck and its batch-key families.
struct Class {
  int slots;
  std::vector<SolveRequest> families;
};

std::vector<Class> request_classes() {
  const auto small = [](const std::vector<pstab::matrices::MatrixSpec>& specs) {
    std::vector<std::string> v;
    for (const auto& spec : specs)
      if (spec.n < kMaxOrder) v.push_back(spec.name);
    return v;
  };
  const std::vector<std::string> spd_names =
      small(pstab::matrices::table1_specs());
  const std::vector<std::string> general_names =
      small(pstab::matrices::general_specs());
  const auto spd = [&](Solver s) {
    std::vector<SolveRequest> v;
    for (const auto& n : spd_names)
      for (bool rescale : {false, true}) {
        SolveRequest r;
        r.solver = s;
        r.matrix = n;
        r.rescale = rescale;
        v.push_back(r);
      }
    return v;
  };
  const auto general = [&](Solver s) {
    std::vector<SolveRequest> v;
    for (const auto& n : general_names)
      for (bool rescale : {false, true})
        for (const char* f : {"f16", "p16_1", "p32_2"})
          for (const char* res : {"dd", "quire"}) {
            SolveRequest r;
            r.solver = s;
            r.matrix = n;
            r.rescale = rescale;
            r.precision.factor = std::string(f);
            r.precision.residual = std::string(res);
            v.push_back(r);
          }
    return v;
  };
  return {
      {kSolverSlots, spd(Solver::cg)},
      {kSolverSlots, spd(Solver::cholesky)},
      {kSolverSlots, spd(Solver::ir)},
      {kSolverSlots, general(Solver::lu_ir)},
      {kSolverSlots, general(Solver::gmres_ir)},
  };
}

struct Scheduled {
  double t = 0;  // due time, seconds from the phase start
  SolveRequest req;
  std::string json;
};

/// `count` Poisson arrivals at `rate`.  The traffic is dealt from shuffled
/// decks of 100 requests holding each class's slots (families taken round
/// robin from a seeded offset) and kRepeatSlots exact repeats, so every
/// phase has the same composition whatever the seed; the seed decides the
/// order, the arrival times, the families' rotation and the right-hand
/// sides.
std::vector<Scheduled> make_schedule(pstab::SplitMix64& rng,
                                     const std::vector<Class>& classes,
                                     double rate, std::size_t count,
                                     std::uint64_t& next_id) {
  const auto uniform = [&rng] {
    return (double(rng.next() >> 11) + 0.5) * 0x1p-53;
  };
  std::vector<std::size_t> turn(classes.size());
  for (auto& t : turn) t = rng.next() % 1024;
  std::vector<int> deck;  // class index per slot; -1 = repeat
  std::vector<Scheduled> out;
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (deck.empty()) {
      for (std::size_t c = 0; c < classes.size(); ++c)
        deck.insert(deck.end(), std::size_t(classes[c].slots), int(c));
      deck.insert(deck.end(), std::size_t(kRepeatSlots), -1);
      for (std::size_t j = deck.size() - 1; j > 0; --j)
        std::swap(deck[j], deck[rng.below(j + 1)]);
    }
    const int c = deck.back();
    deck.pop_back();
    t += -std::log(uniform()) / rate;
    Scheduled s;
    s.t = t;
    if (c < 0 && !out.empty()) {
      // Repeat a request due at least a second earlier (answered by then,
      // so a memo hit), or any earlier one at the start of a phase.
      std::size_t older = 0;
      while (older < out.size() && out[older].t <= t - 1.0) ++older;
      s.req = out[rng.below(older > 0 ? older : out.size())].req;
    } else {
      const auto& cls = classes[std::size_t(std::max(c, 0))];
      s.req = cls.families[turn[std::size_t(std::max(c, 0))]++ %
                           cls.families.size()];
      s.req.rhs_seed = rng.next() | 1;  // fresh right-hand side, never 0
    }
    s.req.id = next_id++;
    pstab::serve::Request wire;
    wire.solve = s.req;
    s.json = pstab::serve::request_to_json(wire);
    out.push_back(std::move(s));
  }
  return out;
}

struct Phase {
  std::vector<double> latency_s;   // kRefusedLatency when refused
  std::vector<double> lag_s;       // generator lateness per send
  std::vector<std::string> bytes;  // response bytes
  std::vector<double> done_s;      // completion, seconds from the phase start
  std::vector<char> refused;
  std::uint64_t refusals = 0;
  std::size_t backlog = 0;  // in flight when the last request was sent
  double first_s = 0;       // due time of the first request
  pstab::serve::EngineStats before;
  double p90() const { return quantile(latency_s, 0.9); }
  /// Answered requests per second from the first send to the last answer:
  /// the engine's capacity when the phase overloads it (the engine is then
  /// busy from the start until the backlog drains), about the offered rate
  /// otherwise.
  double answered_rps() const {
    std::size_t n = 0;
    double last = 0;
    for (std::size_t i = 0; i < done_s.size(); ++i)
      if (!refused[i]) {
        ++n;
        last = std::max(last, done_s[i]);
      }
    return last > first_s ? double(n) / (last - first_s) : 0.0;
  }
};

Phase run_phase(pstab::serve::Engine& engine,
                const std::vector<Scheduled>& sched) {
  Tracer& tr = Tracer::get();
  const std::size_t n = sched.size();
  Phase ph;
  ph.latency_s.assign(n, kRefusedLatency);
  ph.lag_s.assign(n, 0.0);
  ph.bytes.assign(n, std::string());
  ph.refused.assign(n, 0);
  ph.done_s.assign(n, 0.0);
  ph.first_s = n ? sched.front().t : 0.0;
  ph.before = engine.stats();
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(sched[i].t));
    std::this_thread::sleep_until(due);
    ph.lag_s[i] = secs(due, Clock::now());
    const std::int64_t span_id = tr.on() ? tr.next_id() : -1;
    const double due_rel = tr.on() ? tr.now() - ph.lag_s[i] : 0.0;
    pstab::serve::Request wire;
    std::string err;
    bool parsed;
    {
      Scope s("serve.protocol.parse", span_id, sched[i].req.id);
      parsed = pstab::serve::request_from_json(sched[i].json, wire, err);
    }
    if (!parsed) {
      ph.bytes[i] = "unparsed: " + err;
      continue;
    }
    Scope submit("serve.submit", span_id, wire.solve.id);
    engine.submit(wire.solve, [&ph, &tr, i, t0, due, span_id, due_rel](
                                  const pstab::core::SolveResponse& resp) {
      const auto end = Clock::now();
      {
        Scope s("serve.protocol.emit", span_id, resp.id);
        ph.bytes[i] = pstab::serve::response_json(resp);
      }
      if (!resp.ok && resp.error.rfind("overloaded", 0) == 0) {
        ph.refused[i] = 1;
        return;
      }
      ph.latency_s[i] = secs(due, end);
      ph.done_s[i] = secs(t0, end);
      if (span_id >= 0) {
        Span s;
        s.id = span_id;
        s.request = resp.id;
        s.name = "serve.request";
        s.start = due_rel;
        s.end = tr.now();
        tr.record(std::move(s));
      }
    });
  }
  ph.backlog = engine.stats().queue_depth;
  engine.drain();
  for (char c : ph.refused) ph.refusals += c;
  return ph;
}

/// One request (paper right-hand side) per artifact set the timed phases
/// reuse — matrices, equilibrations and factorizations: every cg, cholesky
/// and ir family has its own, and the general families share one LU per
/// (matrix, scaling, factor format) whatever the solver or residual.
std::vector<SolveRequest> warm_requests(const std::vector<Class>& classes) {
  std::vector<SolveRequest> out;
  std::vector<std::string> built;
  for (const auto& c : classes)
    for (SolveRequest r : c.families) {
      std::string sig = r.matrix + (r.rescale ? "/r/" : "/n/") +
                        (r.precision.factor == "grid"
                             ? std::string(pstab::core::to_string(r.solver))
                             : r.precision.factor);
      if (std::find(built.begin(), built.end(), sig) != built.end()) continue;
      built.push_back(std::move(sig));
      r.id = out.size() + 1;
      out.push_back(r);
    }
  return out;
}

/// Runs the warm-up requests through the engine; returns how many failed.
std::uint64_t warm_up(pstab::serve::Engine& engine,
                      const std::vector<SolveRequest>& warm) {
  std::atomic<std::uint64_t> bad{0};
  for (const SolveRequest& r : warm)
    engine.submit(r, [&bad](const pstab::core::SolveResponse& resp) {
      if (!resp.ok) bad.fetch_add(1);
    });
  engine.drain();
  return bad.load();
}

std::vector<std::string> mix_matrices(const std::vector<Class>& classes,
                                      bool spd) {
  std::vector<std::string> out;
  for (const auto& c : classes)
    for (const auto& r : c.families) {
      const bool is_spd = pstab::matrices::find_spec(r.matrix)->spd;
      if (is_spd == spd &&
          std::find(out.begin(), out.end(), r.matrix) == out.end())
        out.push_back(r.matrix);
    }
  return out;
}

}  // namespace

Result run_serve_mix(const Options& opt) {
  Result r;
  const std::vector<Class> classes = request_classes();
  const std::vector<SolveRequest> warm = warm_requests(classes);

  // The whole schedule is drawn from the seed up front: reference phase,
  // then every ladder rung, whether or not the ladder gets that far.
  pstab::SplitMix64 rng(opt.seed);
  std::uint64_t next_id = 1;
  const auto count = [&](double rate, double share) {
    return std::size_t(std::max(8.0, std::round(rate * share * opt.seconds)));
  };
  const std::vector<Scheduled> ref = make_schedule(
      rng, classes, kRefRate, count(kRefRate, kRefShare), next_id);
  std::vector<std::vector<Scheduled>> rungs;
  for (double rate : kLadder)
    rungs.push_back(
        make_schedule(rng, classes, rate, count(rate, kRungShare), next_id));
  if (opt.print_schedule) {
    std::string all;
    for (const auto& s : ref) all += std::to_string(s.t) + s.json + "\n";
    for (const auto& rung : rungs)
      for (const auto& s : rung) all += std::to_string(s.t) + s.json + "\n";
    std::printf("schedule %s requests %zu\n", hex64(fnv(all)).c_str(),
                std::size_t(next_id - 1));
    return r;
  }

  pstab::serve::EngineOptions eo;
  eo.threads = std::max(1, pstab::parallel_threads() - 1);
  eo.max_queue = kMaxQueue;

  // Set-up, three times (the last engine is kept): engine start plus the
  // warm-up that generates the matrices and builds every family's artifacts.
  const bool trace = Tracer::get().on();
  Tracer::get().enable(false);
  std::unique_ptr<pstab::serve::Engine> engine;
  std::vector<double> reps;
  for (int k = 0; k < 3; ++k) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = std::make_unique<pstab::serve::Engine>(eo);
    r.failed += warm_up(*engine, warm);
    reps.push_back(secs(t0, Clock::now()));
  }
  const double setup_s = setup_seconds(reps);

  std::vector<std::unique_ptr<Phase>> phases;
  const auto keep = [&](Phase&& ph) {
    phases.push_back(std::make_unique<Phase>(std::move(ph)));
    return phases.back().get();
  };

  // Reference phase (untraced), then the ladder.
  const Phase* p_ref = keep(run_phase(*engine, ref));
  std::vector<const Phase*> p_rungs;
  const Phase* p_traced = nullptr;
  std::unique_ptr<pstab::serve::Engine> traced_engine;
  if (trace) {
    // Same schedule on a second warmed engine, with spans on.
    traced_engine = std::make_unique<pstab::serve::Engine>(eo);
    r.failed += warm_up(*traced_engine, warm);
    Tracer::get().enable(true);
    p_traced = keep(run_phase(*traced_engine, ref));
  }
  pstab::serve::Engine& ladder_engine = trace ? *traced_engine : *engine;
  // serve_max_rps: the ladder brackets the rate at which the limit is lost
  // between the last passing and the first missing rung, but only to a
  // rung (26%), and a 2 s rung just below capacity can miss on a noisy p90
  // while one just above it can pass because its backlog had no time to
  // grow.  In steady state p90 stays within the limit up to close to
  // capacity, so the figure is the engine's capacity: answered requests per
  // second, first send to last answer, on the rung after the first miss,
  // which is overloaded for sure (the engine is busy throughout).  The
  // first miss itself may not be, so its rate is not used unless it is the
  // ladder's last rung; a ladder that never misses reports its top rate.
  double capacity = 0;
  int misses = 0;
  for (std::size_t k = 0; k < rungs.size() && misses < 2; ++k) {
    const Phase* ph = keep(run_phase(ladder_engine, rungs[k]));
    p_rungs.push_back(ph);
    const double rate = kLadder[k];
    const double p90 = ph->p90();
    const bool pass = misses == 0 && p90 <= kLimitS && ph->refusals == 0 &&
                      double(ph->backlog) <= rate * kLimitS;
    std::printf("serve_mix rung %.0f/s: %zu requests, p90 %.1f ms, refused %"
                PRIu64 ", backlog %zu, answered %.1f/s -> %s\n",
                rate, rungs[k].size(), 1e3 * std::min(p90, 1e6),
                ph->refusals, ph->backlog, ph->answered_rps(),
                pass ? "pass" : misses ? "confirm" : "miss");
    if (pass) continue;
    ++misses;
    capacity = ph->answered_rps();
  }
  const double max_rps = misses ? capacity : kLadder[std::size(kLadder) - 1];

  // Output check: every answered request against a cache-less run_request
  // of the same request (warm == cold), one cold solve per canonical key.
  std::vector<std::pair<const Scheduled*, const std::string*>> checks;
  std::uint64_t refused_ref = p_ref->refusals;
  const auto collect = [&](const std::vector<Scheduled>& sched,
                           const Phase* ph) {
    for (std::size_t i = 0; i < sched.size(); ++i)
      if (!ph->refused[i]) checks.push_back({&sched[i], &ph->bytes[i]});
  };
  collect(ref, p_ref);
  if (p_traced) {
    collect(ref, p_traced);
    refused_ref += p_traced->refusals;
  }
  for (std::size_t k = 0; k < p_rungs.size(); ++k)
    collect(rungs[k], p_rungs[k]);
  Tracer::get().enable(false);
  std::map<std::string, std::size_t> key_index;
  std::vector<const SolveRequest*> unique;
  std::vector<std::size_t> check_key(checks.size());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto key = checks[i].first->req.canonical_key();
    const auto [it, fresh] = key_index.emplace(key, unique.size());
    if (fresh) unique.push_back(&checks[i].first->req);
    check_key[i] = it->second;
  }
  const auto t_check = Clock::now();
  std::vector<double> cold_s(unique.size());
  const auto cold =
      pstab::parallel_map<pstab::core::SolveResponse>(
          unique.size(), [&](std::size_t u) {
            const auto t0 = Clock::now();
            auto resp = pstab::core::run_request(*unique[u]);
            cold_s[u] = secs(t0, Clock::now());
            return resp;
          });
  std::uint64_t mismatches = 0, errors = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    pstab::core::SolveResponse want = cold[check_key[i]];
    want.id = checks[i].first->req.id;
    if (!want.ok) ++errors;
    if (pstab::serve::response_json(want) != *checks[i].second) ++mismatches;
  }
  const double check_s = secs(t_check, Clock::now());
  r.attempted += checks.size() + refused_ref;
  r.failed += mismatches + errors + refused_ref;

  const std::vector<double>& ref_lat = p_ref->latency_s;
  std::printf("serve_mix reference %.0f/s: %zu samples, serve_p50_ms %.2f, "
              "serve_p90_ms %.2f, refused %" PRIu64 "; serve_max_rps %.1f at "
              "p90 <= %.0f ms; checked %zu responses (%zu cold solves, "
              "%.1f s), %" PRIu64 " mismatches\n",
              kRefRate, ref_lat.size(), 1e3 * quantile(ref_lat, 0.5),
              1e3 * quantile(ref_lat, 0.9), p_ref->refusals, max_rps,
              1e3 * kLimitS, checks.size(), unique.size(), check_s,
              mismatches);

  if (!trace) {
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("ok_frac", double(r.attempted - r.failed) / double(r.attempted),
          "frac");
    r.add("p50_ms", 1e3 * quantile(ref_lat, 0.5), "ms");
    r.add("p90_ms", 1e3 * quantile(ref_lat, 0.9), "ms");
    r.add("throughput", max_rps, "1/s");
    return r;
  }

  LayerReport lr(opt.per_layer);
  const auto& tl = p_traced->latency_s;
  lr.set("trace.overhead_frac",
         quantile(tl, 0.5) / quantile(ref_lat, 0.5) - 1);

  // Matrix generation for the mix, outside any engine.
  for (const bool spd : {true, false}) {
    const auto t0 = Clock::now();
    for (const auto& n : mix_matrices(classes, spd))
      (void)pstab::matrices::make_suite_matrix(n);
    lr.set(spd ? "matrices.suite_gen_s" : "matrices.general_gen_s",
           secs(t0, Clock::now()));
  }
  // Two-sided equilibration of the general matrices (cached after the first
  // build in the engine, so it should barely move serve latency).
  {
    std::vector<double> ms;
    for (const auto& n : mix_matrices(classes, false)) {
      auto A = pstab::matrices::suite_matrix(n).dense;
      const auto t0 = Clock::now();
      (void)pstab::scaling::equilibrate_general(A);
      ms.push_back(1e3 * secs(t0, Clock::now()));
    }
    lr.set("scaling.equil_general_ms", median(ms));
  }

  // Engine counters over the traced phase and the ladder.
  const auto& b = p_traced->before;
  const pstab::serve::EngineStats e = ladder_engine.stats();
  const double reqs = double(e.requests - b.requests);
  lr.set("serve.memo_hit_frac", double(e.memo_hits - b.memo_hits) /
                                    std::max(1.0, double(e.solved - b.solved)));
  lr.set("serve.coalesced_frac",
         double(e.coalesced - b.coalesced) / std::max(1.0, reqs));
  lr.set("serve.batches", double(e.batches - b.batches));
  lr.set("serve.steals", double(e.steals - b.steals));
  lr.set("serve.overloaded", double(e.overloaded - b.overloaded));
  lr.set("serve.gen_lag_ms", 1e3 * quantile(p_traced->lag_s, 0.9));

  const auto st = span_stats(Tracer::get().spans());
  lr.set("serve.protocol.parse_us",
         1e3 * span_median_ms(st, "serve.protocol.parse"));
  lr.set("serve.protocol.emit_us",
         1e3 * span_median_ms(st, "serve.protocol.emit"));

  // Cold run_request times per solver (from the output check).
  std::map<std::string, std::vector<double>> cold_ms;
  for (std::size_t u = 0; u < unique.size(); ++u)
    cold_ms[pstab::core::to_string(unique[u]->solver)].push_back(1e3 *
                                                                 cold_s[u]);
  for (const auto& [solver, v] : cold_ms) {
    lr.set("core.run_request_ms." + solver + ".p50", quantile(v, 0.5));
    lr.set("core.run_request_ms." + solver + ".p90", quantile(v, 0.9));
  }

  // Cache replay: the warm-up (cold builds -> build times), then the
  // reference schedule on the warmed cache, as the measured engine saw it
  // (hit rates, and each request's service time -> queue wait).
  std::vector<SolveRequest> reqs_in_order;
  for (const auto& s : ref) reqs_in_order.push_back(s.req);
  const CacheReplay rep =
      replay_serve_cache(warm, reqs_in_order, eo.cache_bytes, lr);
  std::map<std::string, std::vector<double>> service_ms;
  std::vector<double> wait_ms;
  std::uint64_t inner = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto it = rep.service_s.find(ref[i].req.id);
    service_ms[pstab::core::to_string(ref[i].req.solver)].push_back(
        1e3 * it->second);
    if (!p_traced->refused[i])
      wait_ms.push_back(1e3 * (tl[i] - it->second));
    // GMRES inner iterations of the traced responses.
    const std::string& bytes = p_traced->bytes[i];
    for (std::size_t pos = bytes.find("\"inner_iterations\":");
         pos != std::string::npos;
         pos = bytes.find("\"inner_iterations\":", pos + 1))
      inner += std::strtoull(bytes.c_str() + pos + 19, nullptr, 10);
    ++r.attempted;
    if (!p_ref->refused[i] &&
        rep.responses.at(ref[i].req.id) != p_ref->bytes[i])
      ++r.failed;
  }
  for (const auto& [solver, v] : service_ms) {
    lr.set("serve.service_ms." + solver + ".p50", quantile(v, 0.5));
    lr.set("serve.service_ms." + solver + ".p90", quantile(v, 0.9));
  }
  lr.set("serve.queue_wait_ms.p50", quantile(wait_ms, 0.5));
  lr.set("serve.queue_wait_ms.p90", quantile(wait_ms, 0.9));
  lr.set("la.gmres.inner_iters", double(inner));
  r.metrics = lr.finish();
  return r;
}

}  // namespace pbench
