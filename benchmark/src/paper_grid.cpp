// paper_grid: the paper's SPD reproduction sweep (Figs 6-9, Tables II-III).
// Every Table I matrix gets cg, cg rescaled, cholesky, cholesky rescaled, ir
// and ir Higham over the full format grid; every cell is one cache-less
// core::run_request, and each experiment is spread over the matrices by
// common/parallel_for exactly as the fig benches do.  The inputs are the
// paper's deterministic right-hand sides, so the rows do not depend on the
// seed and are checked against committed digests.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "bench.hpp"
#include "common/parallel_for.hpp"
#include "core/solve_api.hpp"
#include "layers.hpp"
#include "matrices/suite.hpp"

namespace pbench {

namespace {

using pstab::core::Solver;

struct Experiment {
  const char* tag;
  Solver solver;
  bool rescale;
  const char* span;  // per-cell span name (core.run_request.<solver>)
};

const Experiment kGrid[] = {
    {"cg", Solver::cg, false, "core.run_request.cg"},
    {"cg_rescaled", Solver::cg, true, "core.run_request.cg"},
    {"cholesky", Solver::cholesky, false, "core.run_request.cholesky"},
    {"cholesky_rescaled", Solver::cholesky, true, "core.run_request.cholesky"},
    {"ir_naive", Solver::ir, false, "core.run_request.ir"},
    {"ir_higham", Solver::ir, true, "core.run_request.ir"},
};

struct Sweep {
  double wall_s = 0;
  std::uint64_t cells = 0, errors = 0;
  std::vector<std::string> digests;  // "<section> <tag>/<matrix> <hex>"
  std::vector<std::string> rows;     // result rows, grid order
  std::vector<double> cell_s;        // per-cell run_request time, grid order
};

Sweep run_sweep(const std::vector<std::string>& names, const char* section) {
  Sweep s;
  const auto t0 = Clock::now();
  {
    Scope sweep("paper_grid.sweep");
    for (const Experiment& e : kGrid) {
      Scope exp("paper_grid.experiment", sweep.id());
      std::vector<double> cell_s(names.size());
      const auto rows =
          pstab::parallel_map<std::string>(names.size(), [&](std::size_t i) {
            pstab::core::SolveRequest req;
            req.id = i + 1;
            req.solver = e.solver;
            req.matrix = names[i];
            req.rescale = e.rescale;
            Scope cell(e.span, exp.id(), req.id);
            const auto c0 = Clock::now();
            const auto resp = pstab::core::run_request(req);
            cell_s[i] = secs(c0, Clock::now());
            return resp.ok ? resp.result_json : "error: " + resp.error;
          });
      for (std::size_t i = 0; i < names.size(); ++i) {
        ++s.cells;
        if (rows[i].rfind("error: ", 0) == 0) ++s.errors;
        s.digests.push_back(std::string(section) + " " + e.tag + "/" +
                            names[i] + " " + hex64(fnv(rows[i])));
        s.rows.push_back(rows[i]);
        s.cell_s.push_back(cell_s[i]);
      }
    }
  }
  s.wall_s = secs(t0, Clock::now());
  return s;
}

/// Cells replayed layer by layer: every experiment on four matrices that
/// span the suite's orders (48 to the 360 cap).
std::vector<std::string> grid_replay_sample(
    const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const char* m : {"bcsstk01", "bcsstk22", "nos1", "plat362"})
    if (std::find(names.begin(), names.end(), m) != names.end())
      out.push_back(m);
  return out;
}

}  // namespace

Result run_paper_grid(const Options& opt) {
  Result r;
  std::vector<std::string> names;
  for (const auto& s : pstab::matrices::table1_specs()) names.push_back(s.name);
  const char* section = opt.smoke ? "paper_grid.smoke" : "paper_grid";

  // Set-up: generate the suite.  Repeat 0 fills the process-wide matrix
  // cache that the cache-less run_request reads; the later repeats time the
  // same generation through make_suite_matrix.
  std::vector<double> reps;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    if (k == 0) {
      (void)pstab::matrices::full_suite();
    } else {
      for (const auto& n : names) (void)pstab::matrices::make_suite_matrix(n);
    }
    reps.push_back(secs(t0, Clock::now()));
  }
  const double setup_s = setup_seconds(reps);

  if (opt.write_digests) {
    for (const auto& d : run_sweep(names, section).digests)
      std::printf("%s\n", d.c_str());
    return r;
  }

  // Untraced sweeps give the end-to-end numbers; a trace run spends half its
  // time on them (for the overhead figure) and half on traced sweeps.
  const bool trace = Tracer::get().on();
  Tracer::get().enable(false);
  const double budget = trace ? opt.seconds / 2 : opt.seconds;
  const auto sweep = [&] { return run_sweep(names, section); };
  std::vector<Sweep> sweeps = repeat_for(budget, sweep);
  std::vector<Sweep> traced;
  if (trace) {
    Tracer::get().enable(true);
    traced = repeat_for(budget, sweep);
  }

  std::vector<double> walls, cell_ms;
  for (const auto* set : {&sweeps, &traced}) {
    for (const Sweep& s : *set) {
      r.attempted += s.cells;
      r.failed += s.errors + check_digests(opt, s.digests);
      if (set != &sweeps) continue;
      walls.push_back(s.wall_s);
      for (double c : s.cell_s) cell_ms.push_back(1e3 * c);
    }
  }
  const double ok_frac =
      double(r.attempted - r.failed) / double(r.attempted);

  if (!trace) {
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("ok_frac", ok_frac, "frac");
    // Per-cell run_request latency over every untraced sweep; the sweep
    // wall time (grid_wall_s) is cells / throughput.
    r.add("p50_ms", quantile(cell_ms, 0.5), "ms");
    r.add("p90_ms", quantile(cell_ms, 0.9), "ms");
    r.add("throughput", double(sweeps.front().cells) / median(walls), "1/s");
    std::printf("paper_grid: %zu sweeps of %" PRIu64 " cells, grid_wall_s "
                "%.3f (median), cell p50 %.1f ms p90 %.1f ms over %zu cells\n",
                sweeps.size(), sweeps.front().cells, median(walls),
                quantile(cell_ms, 0.5), quantile(cell_ms, 0.9),
                cell_ms.size());
    return r;
  }

  std::vector<double> twalls;
  for (const Sweep& s : traced) twalls.push_back(s.wall_s);
  LayerReport lr(opt.per_layer);
  lr.set("trace.overhead_frac", median(twalls) / median(walls) - 1);
  lr.set("matrices.suite_gen_s", median(reps));

  // From the traced sweeps: per-cell run_request times and the share of
  // worker time left idle while the slowest matrices finish.
  const auto st = span_stats(Tracer::get().spans());
  double cell_s = 0;
  for (const char* solver : {"cg", "cholesky", "ir"}) {
    const auto it = st.find(std::string("core.run_request.") + solver);
    if (it == st.end()) continue;
    cell_s += it->second.total_s;
    std::vector<double> ms;
    for (double d : it->second.durations) ms.push_back(1e3 * d);
    lr.set(std::string("core.run_request_ms.") + solver + ".p50",
           quantile(ms, 0.5));
    lr.set(std::string("core.run_request_ms.") + solver + ".p90",
           quantile(ms, 0.9));
  }
  double traced_wall = 0;
  for (double w : twalls) traced_wall += w;
  lr.set("common.grid.idle_frac",
         1 - cell_s / (double(pstab::parallel_threads()) * traced_wall));

  // Layer replay of a sample of cells, one at a time: run_request, then the
  // same cell layer by layer.  The replayed row must match byte for byte.
  const std::vector<std::string> sample = grid_replay_sample(names);
  const std::size_t mark = Tracer::get().size();
  std::uint64_t ir_steps = 0, request = 1u << 20;
  for (std::size_t e = 0; e < std::size(kGrid); ++e) {
    for (const auto& m : sample) {
      ++request;
      pstab::core::SolveRequest req;
      req.solver = kGrid[e].solver;
      req.matrix = m;
      req.rescale = kGrid[e].rescale;
      {
        Scope s("replay.run_request", -1, request);
        (void)pstab::core::run_request(req);
      }
      const std::string row =
          replay_grid_cell(kGrid[e].tag, m, request, ir_steps);
      const auto pos = std::find(names.begin(), names.end(), m) - names.begin();
      ++r.attempted;
      if (row != sweeps.front().rows[e * names.size() + std::size_t(pos)]) {
        ++r.failed;
        std::fprintf(stderr, "replay mismatch: %s/%s\n", kGrid[e].tag,
                     m.c_str());
      }
    }
  }
  const auto all = Tracer::get().spans();
  const std::vector<Span> replay(all.begin() + std::ptrdiff_t(mark), all.end());
  const auto rst = span_stats(replay);
  lr.set("scaling.pow2_ms", span_median_ms(rst, "scaling.pow2"));
  lr.set("scaling.diag_avg_ms", span_median_ms(rst, "scaling.diag_avg"));
  lr.set("scaling.higham_ms", span_median_ms(rst, "scaling.higham"));
  lr.set("core.emit_ms", span_median_ms(rst, "core.emit"));
  lr.set("la.ir.steps", double(ir_steps));
  // Unattributed: run_request time the layer spans of its replay leave
  // uncovered (cell span minus its children = the replay's self time).
  const auto rr = rst.find("replay.run_request");
  const auto rc = rst.find("replay.cell");
  if (rr != rst.end() && rc != rst.end())
    lr.set("core.unattributed_frac",
           1 - (rc->second.total_s - rc->second.self_s) / rr->second.total_s);

  Tracer::get().enable(false);
  cholesky_factor_ms(sample, lr);
  posit_op_rates(names, lr);
  panel_kernel_rates(lr);
  r.metrics = lr.finish();
  return r;
}

}  // namespace pbench
