// large_cg: `pstab cg synth50k` as one cache-less core::run_request — CG to
// tol 1e-5 on the n = 5e4 (3.5e5 nnz) synthetic band matrix in f64, f32,
// p32_2 and p32_3 with Backend::Auto.  SpMV and the BLAS-1 kernels of
// la::kernels (and the row-tiled parallel SpMV) do almost all of the work;
// there is no factorization, scaling, cache or serve layer.  The right-hand
// side is the paper's, so the row is checked against a committed digest.
#include <cstdio>

#include "bench.hpp"
#include "core/solve_api.hpp"
#include "layers.hpp"
#include "matrices/suite.hpp"

namespace pbench {

namespace {

constexpr const char* kMatrix = "synth50k";

struct Solve {
  double wall_s = 0;
  bool ok = false;
  std::string row;
};

Solve solve_once() {
  static std::uint64_t id = 0;
  pstab::core::SolveRequest req;
  req.id = ++id;
  req.solver = pstab::core::Solver::cg;
  req.matrix = kMatrix;
  Solve s;
  const auto t0 = Clock::now();
  {
    Scope span("core.run_request.cg", -1, req.id);
    const auto resp = pstab::core::run_request(req);
    s.ok = resp.ok;
    s.row = resp.ok ? resp.result_json : "error: " + resp.error;
  }
  s.wall_s = secs(t0, Clock::now());
  return s;
}

}  // namespace

Result run_large_cg(const Options& opt) {
  Result r;
  const std::string section = opt.smoke ? "large_cg.smoke" : "large_cg";

  // Set-up: generate the matrix.  Repeat 0 fills the process-wide cache the
  // cache-less run_request reads; the later repeats regenerate it (at least
  // five, more while they add up to under a second: generation is short).
  std::vector<double> reps;
  double spent = 0;
  for (int k = 0; k < 5 || (spent < 1.0 && k < 40); ++k) {
    const auto t0 = Clock::now();
    if (k == 0)
      (void)pstab::matrices::suite_matrix(kMatrix);
    else
      (void)pstab::matrices::make_suite_matrix(kMatrix);
    reps.push_back(secs(t0, Clock::now()));
    spent += reps.back();
  }
  const double setup_s = setup_seconds(reps);
  const auto& m = pstab::matrices::suite_matrix(kMatrix);
  // Working set against the last-level cache (see the fingerprint line):
  // the double CSR image the solver casts from.
  std::printf("large_cg: %s n=%d nnz=%zu, CSR f64 %.1f MiB\n", kMatrix, m.n,
              m.csr.nnz(),
              double(m.csr.nnz() * 12 + (std::size_t(m.n) + 1) * 4) /
                  (1 << 20));

  const auto digest = [&](const Solve& s) {
    return section + " cg/" + kMatrix + " " + hex64(fnv(s.row));
  };
  if (opt.write_digests) {
    std::printf("%s\n", digest(solve_once()).c_str());
    return r;
  }

  // A solve takes 10-20 s on a 4-vCPU host, so a measuring run makes at
  // least three, even when they overrun --seconds: the median then shrugs
  // off one solve slowed by the host, and p50_ms and p90_ms come from
  // distinct samples.
  const bool trace = Tracer::get().on();
  Tracer::get().enable(false);
  const double budget = trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Solve> solves = repeat_for(budget, solve_once, trace ? 1 : 3);
  std::vector<Solve> traced;
  if (trace) {
    Tracer::get().enable(true);
    traced = repeat_for(budget, solve_once);
  }
  std::vector<double> walls, twalls;
  for (const auto* set : {&solves, &traced})
    for (const Solve& s : *set) {
      ++r.attempted;
      r.failed += (s.ok ? 0 : 1) + check_digests(opt, {digest(s)});
      (set == &solves ? walls : twalls).push_back(s.wall_s);
    }
  std::printf("large_cg: %zu solves, large_cg_s %.3f (median)\n", solves.size(),
              median(walls));

  if (!trace) {
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("ok_frac", double(r.attempted - r.failed) / double(r.attempted),
          "frac");
    r.add("p50_ms", 1e3 * quantile(walls, 0.5), "ms");
    r.add("p90_ms", 1e3 * quantile(walls, 0.9), "ms");
    r.add("throughput", 1 / median(walls), "1/s");
    return r;
  }

  LayerReport lr(opt.per_layer);
  lr.set("trace.overhead_frac", median(twalls) / median(walls) - 1);
  lr.set("matrices.synth50k_gen_s", median(reps));
  std::vector<double> ms;
  for (double w : twalls) ms.push_back(1e3 * w);
  lr.set("core.run_request_ms.cg.p50", quantile(ms, 0.5));
  lr.set("core.run_request_ms.cg.p90", quantile(ms, 0.9));
  // Kernel replay on the real operands; the re-emitted row must match.
  ++r.attempted;
  if (replay_cg_kernels(m, lr) != solves.front().row) {
    ++r.failed;
    std::fprintf(stderr, "large_cg: replayed CG row differs\n");
  }
  r.metrics = lr.finish();
  return r;
}

}  // namespace pbench
