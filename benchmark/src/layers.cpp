#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/experiments.hpp"
#include "core/report_json.hpp"
#include "ieee/softfloat.hpp"
#include "la/blocked.hpp"
#include "la/cholesky.hpp"
#include "la/kernels/kernels.hpp"
#include "matrices/suite.hpp"
#include "posit/posit.hpp"
#include "scaling/higham.hpp"
#include "scaling/scaling.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace pbench {

namespace la = pstab::la;
namespace k = pstab::la::kernels;
using pstab::scalar_traits;

namespace {

const char* const kCgFormats[] = {"f64", "f32", "p32_2", "p32_3"};
const char* const kCacheKinds[] = {"matrix", "equil",  "chol", "irfact",
                                   "lufact", "equilg", "resp"};

/// Keeps the compiler from discarding a loop whose results go unread.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Per-call seconds of f(): calls are batched until a batch lasts 20 ms,
/// then the median of three batches is taken.
template <class F>
double time_per_call(F&& f) {
  f();
  std::size_t n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) f();
    if (secs(t0, Clock::now()) >= 0.02 || n >= (std::size_t(1) << 24)) break;
    n *= 2;
  }
  std::vector<double> per;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) f();
    per.push_back(secs(t0, Clock::now()) / double(n));
  }
  return median(per);
}

/// Which leg a kernel call of length n actually takes (the label every
/// kernels.* row carries).
template <class T>
std::string leg_taken(const k::Context& c, std::size_t n, bool has_simd_leg) {
  if (has_simd_leg && k::use_simd<T>(c, n))
    return std::string("simd:") + k::simd::isa_name(k::simd::active_isa());
  if (k::use_batched<T>(c, n)) return "batched";
  return "scalar";
}

void print_label(const std::string& metric, const std::string& leg) {
  const char* note = k::simd::fallback_note();
  std::printf("label %s backend=%s fallback=%s\n", metric.c_str(), leg.c_str(),
              note ? note : "none");
}

}  // namespace

LayerReport::LayerReport(std::vector<Metric> spec) : metrics_(std::move(spec)) {
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    index_[metrics_[i].name] = i;
}

void LayerReport::set(const std::string& name, double value) {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    std::fprintf(stderr, "pstab_bench: unknown layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  metrics_[it->second].value = value;
}

double span_median_ms(const std::map<std::string, SpanStats>& st,
                      const std::string& name) {
  const auto it = st.find(name);
  return it == st.end() ? 0.0 : 1e3 * median(it->second.durations);
}

// ---------------------------------------------------------------------------
// paper_grid cell replay

namespace {

template <class F>
la::IrReport ir_cell(const pstab::matrices::GeneratedMatrix& m,
                     const la::Vec<double>& b,
                     const pstab::core::SolveRequest& req, double mu,
                     std::int64_t parent, std::uint64_t request) {
  la::IrOptions iro;
  iro.tol = req.effective_tol();
  iro.max_iter = req.effective_max_iter(m.n);
  iro.kernels = req.kernel_context();
  iro.resilience = req.resilient_options();
  la::Vec<double> x;
  if (!req.rescale) {
    Scope s("la.ir", parent, request);
    return la::mixed_ir<F>(m.dense, b, x, iro);
  }
  la::Dense<double> Ah = m.dense;
  pstab::scaling::HighamScaling hs;
  {
    Scope s("scaling.higham", parent, request);
    hs = pstab::scaling::higham_scale(Ah, mu);
  }
  Scope s("la.ir", parent, request);
  return la::mixed_ir<F>(m.dense, b, x, iro, &hs, &Ah);
}

}  // namespace

std::string replay_grid_cell(const std::string& tag, const std::string& name,
                             std::uint64_t request, std::uint64_t& ir_steps) {
  using namespace pstab;
  Scope cell("replay.cell", -1, request);
  const std::int64_t P = cell.id();
  core::SolveRequest req;
  req.matrix = name;
  req.rescale = tag == "cg_rescaled" || tag == "cholesky_rescaled" ||
                tag == "ir_higham";
  const matrices::GeneratedMatrix* m = nullptr;
  {
    Scope s("matrices.lookup", P, request);
    m = &matrices::suite_matrix(name);
  }
  la::Vec<double> b;
  {
    Scope s("core.rhs", P, request);
    b = core::request_rhs(*m, req.rhs_seed);
  }
  if (tag.rfind("cg", 0) == 0) {
    req.solver = core::Solver::cg;
    la::Csr<double> A = m->csr;
    if (req.rescale) {
      Scope s("scaling.pow2", P, request);
      scaling::scale_pow2_inf(A, b, 10);
    }
    la::CgOptions o;
    o.tol = req.effective_tol();
    o.max_iter = req.effective_max_iter(m->n);
    o.kernels = req.kernel_context();
    o.resilience = req.resilient_options();
    core::CgRow row;
    row.matrix = m->spec.name;
    row.norm2 = m->spec.norm2;
    row.cond = m->spec.cond;
    {
      Scope s("la.cg", P, request);
      row.f64 = core::cg_in_format<double>(A, b, o);
      row.f32 = core::cg_in_format<float>(A, b, o);
      row.p32_2 = core::cg_in_format<Posit32_2>(A, b, o);
      row.p32_3 = core::cg_in_format<Posit32_3>(A, b, o);
    }
    Scope s("core.emit", P, request);
    return core::cg_row_json(row);
  }
  if (tag.rfind("cholesky", 0) == 0) {
    req.solver = core::Solver::cholesky;
    la::Dense<double> A = m->dense;
    if (req.rescale) {
      Scope s("scaling.diag_avg", P, request);
      scaling::scale_diag_avg(A, b);
    }
    const k::Context kc = req.kernel_context();
    const la::ResilientOptions res = req.resilient_options();
    core::CholRow row;
    row.matrix = m->spec.name;
    row.norm2 = m->spec.norm2;
    {
      Scope s("la.cholesky", P, request);
      row.f64 = core::cholesky_in_format<double>(A, b, kc, nullptr, {}, res);
      row.f32 = core::cholesky_in_format<float>(A, b, kc, nullptr, {}, res);
      row.p32_2 =
          core::cholesky_in_format<Posit32_2>(A, b, kc, nullptr, {}, res);
      row.p32_3 =
          core::cholesky_in_format<Posit32_3>(A, b, kc, nullptr, {}, res);
    }
    Scope s("core.emit", P, request);
    return core::cholesky_row_json(row);
  }
  req.solver = core::Solver::ir;
  core::IrRow row;
  row.matrix = m->spec.name;
  row.f16 = ir_cell<Half>(*m, b, req, scaling::mu_ieee<Half>(), P, request);
  row.p16_1 = ir_cell<Posit16_1>(*m, b, req, scaling::mu_posit<16, 1>(), P,
                                 request);
  row.p16_2 = ir_cell<Posit16_2>(*m, b, req, scaling::mu_posit<16, 2>(), P,
                                 request);
  ir_steps += std::uint64_t(row.f16.iterations + row.p16_1.iterations +
                            row.p16_2.iterations);
  Scope s("core.emit", P, request);
  return core::ir_row_json(row);
}

namespace {

template <class T>
double factor_ms(const pstab::la::Dense<double>& A) {
  const auto At = A.template cast<T>();
  const auto t0 = Clock::now();
  const auto f = la::cholesky(At, nullptr, k::Context{});
  escape(&f);
  return 1e3 * secs(t0, Clock::now());
}

}  // namespace

void cholesky_factor_ms(const std::vector<std::string>& names,
                        LayerReport& lr) {
  std::vector<double> ms[4];
  for (const auto& n : names) {
    const auto& A = pstab::matrices::suite_matrix(n).dense;
    ms[0].push_back(factor_ms<double>(A));
    ms[1].push_back(factor_ms<float>(A));
    ms[2].push_back(factor_ms<pstab::Posit32_2>(A));
    ms[3].push_back(factor_ms<pstab::Posit32_3>(A));
  }
  for (int f = 0; f < 4; ++f)
    lr.set(std::string("la.cholesky.factor_ms.") + kCgFormats[f],
           median(ms[f]));
}

// ---------------------------------------------------------------------------
// Scalar op throughput

namespace {

template <class T, class Op>
double op_mops(const std::vector<double>& av, const std::vector<double>& bv,
               Op op) {
  const auto a = k::from_double_clamped<T>(av);
  const auto b = k::from_double_clamped<T>(bv);
  std::vector<T> c(a.size());
  const double t = time_per_call([&] {
    for (std::size_t i = 0; i < a.size(); ++i) c[i] = op(a[i], b[i]);
    escape(c.data());
  });
  return double(a.size()) / t / 1e6;
}

template <class T>
void op_rates(const std::string& prefix, const std::vector<double>& av,
              const std::vector<double>& bv, bool with_add, LayerReport& lr) {
  using st = scalar_traits<T>;
  if (with_add)
    lr.set(prefix + ".add_mops",
           op_mops<T>(av, bv, [](T x, T y) { return x + y; }));
  lr.set(prefix + ".mul_mops",
         op_mops<T>(av, bv, [](T x, T y) { return x * y; }));
  lr.set(prefix + ".div_mops",
         op_mops<T>(av, bv, [](T x, T y) { return x / y; }));
  lr.set(prefix + ".sqrt_mops",
         op_mops<T>(av, bv, [](T x, T) { return st::sqrt(st::abs(x)); }));
}

}  // namespace

void posit_op_rates(const std::vector<std::string>& names, LayerReport& lr) {
  // Operands: the stored values of the grid's matrices, paired with the
  // same values in reverse order, 2^16 of each.
  std::vector<double> av;
  for (const auto& n : names) {
    for (double v : pstab::matrices::suite_matrix(n).csr.values())
      if (v != 0) av.push_back(v);
  }
  while (!av.empty() && av.size() < (std::size_t(1) << 16)) {
    const std::vector<double> copy = av;
    av.insert(av.end(), copy.begin(), copy.end());
  }
  av.resize(std::min(av.size(), std::size_t(1) << 16));
  const std::vector<double> bv(av.rbegin(), av.rend());
  op_rates<pstab::Posit32_2>("posit.p32_2", av, bv, true, lr);
  op_rates<pstab::Posit16_1>("posit.p16_1", av, bv, false, lr);
  op_rates<pstab::Half>("ieee.f16", av, bv, false, lr);
}

// ---------------------------------------------------------------------------
// Factorization panel kernels at the grid's largest order

namespace {

template <class T>
void panel_rates(const char* fmt, LayerReport& lr) {
  const int n = pstab::matrices::size_cap() > 0 ? pstab::matrices::size_cap()
                                                : 360;
  const int w = std::min(pstab::la::blocked::pick_block(n), n / 2);
  const int m = n - w;
  const k::Context kc{};
  std::vector<T> C(std::size_t(n) * n), panel(std::size_t(m) * w);
  // Entries in (-1, 1): a fixed low-discrepancy fill, so every format sees
  // the same values without overflow.
  for (std::size_t i = 0; i < C.size(); ++i)
    C[i] = scalar_traits<T>::from_double(std::fmod(0.618 * double(i), 2.0) - 1);
  for (std::size_t i = 0; i < panel.size(); ++i)
    panel[i] = scalar_traits<T>::from_double(
        (std::fmod(0.382 * double(i), 2.0) - 1) / w);
  const std::string base = std::string(".") + fmt + ".ns_per_elem";
  const std::size_t len = std::size_t(n / 2);
  T sink = scalar_traits<T>::zero();
  const double t_chain = time_per_call([&] {
    sink = k::update_chain(kc, sink, C.data(), n, C.data() + 1, n, len, true);
    escape(&sink);
  });
  lr.set("kernels.update_chain" + base, 1e9 * t_chain / double(len));
  print_label("kernels.update_chain" + base, leg_taken<T>(kc, len, true));
  const double t_syrk = time_per_call([&] {
    k::syrk_update(kc, C.data(), std::size_t(n), 0, m, 0, m, panel.data(),
                   std::size_t(w), panel.data(), std::size_t(w),
                   std::size_t(w), true);
    escape(C.data());
  });
  lr.set("kernels.syrk_update" + base,
         1e9 * t_syrk / (double(m) * (m + 1) / 2 * w));
  print_label("kernels.syrk_update" + base, leg_taken<T>(kc, w, true));
  const double t_gemm = time_per_call([&] {
    k::gemm_update(kc, C.data(), std::size_t(n), 0, m, 0, m, panel.data(),
                   std::size_t(w), panel.data(), std::size_t(w),
                   std::size_t(w), true);
    escape(C.data());
  });
  lr.set("kernels.gemm_update" + base, 1e9 * t_gemm / (double(m) * m * w));
  print_label("kernels.gemm_update" + base, leg_taken<T>(kc, w, true));
}

}  // namespace

void panel_kernel_rates(LayerReport& lr) {
  panel_rates<float>("f32", lr);
  panel_rates<pstab::Posit32_2>("p32_2", lr);
  panel_rates<pstab::Posit16_1>("p16_1", lr);
}

// ---------------------------------------------------------------------------
// large_cg: CG per format and its kernels on the real operands

namespace {

template <class T>
pstab::core::CgCell cg_format(const pstab::matrices::GeneratedMatrix& m,
                              const la::Vec<double>& b,
                              const la::CgOptions& o, const char* fmt,
                              LayerReport& lr) {
  const std::string f = fmt;
  pstab::core::CgCell cell;
  double solve_s = 0;
  {
    Scope s(("la.cg." + f).c_str());
    const auto t0 = Clock::now();
    cell = pstab::core::cg_in_format<T>(m.csr, b, o);
    solve_s = secs(t0, Clock::now());
  }
  lr.set("la.cg.iters." + f, cell.iterations);
  lr.set("la.cg.solve_s." + f, solve_s);

  const k::Context& kc = o.kernels;
  const auto A = m.csr.cast<T>();
  const auto x = k::from_double_vec<T>(b);
  la::Vec<T> y = x, ap;
  const std::size_t n = x.size();
  const T alpha = scalar_traits<T>::from_double(1e-9);
  const T beta = scalar_traits<T>::from_double(0.5);
  T sink = scalar_traits<T>::zero();
  double t_spmv, t_dot, t_axpy, t_xpby;
  {
    Scope s(("kernels.spmv." + f).c_str());
    t_spmv = time_per_call([&] {
      k::spmv(kc, A, x, ap);
      escape(ap.data());
    });
  }
  {
    Scope s(("kernels.dot." + f).c_str());
    t_dot = time_per_call([&] {
      sink = k::dot(kc, x, y);
      escape(&sink);
    });
  }
  {
    Scope s(("kernels.axpy." + f).c_str());
    t_axpy = time_per_call([&] {
      k::axpy(kc, alpha, x, y);
      escape(y.data());
    });
  }
  {
    Scope s(("kernels.xpby." + f).c_str());
    t_xpby = time_per_call([&] {
      k::xpby(kc, x, beta, y, y);
      escape(y.data());
    });
  }
  lr.set("kernels.spmv." + f + ".ns_per_elem", 1e9 * t_spmv / double(A.nnz()));
  lr.set("kernels.dot." + f + ".ns_per_elem", 1e9 * t_dot / double(n));
  lr.set("kernels.axpy." + f + ".ns_per_elem", 1e9 * t_axpy / double(n));
  lr.set("kernels.xpby." + f + ".ns_per_elem", 1e9 * t_xpby / double(n));
  // Per CG iteration (la/cg.hpp): 1 apply, 2 dots, 2 axpy, 1 xpby.
  const double per_iter = t_spmv + 2 * t_dot + 2 * t_axpy + t_xpby;
  lr.set("kernels.share_of_cg." + f,
         solve_s > 0 ? double(cell.iterations) * per_iter / solve_s : 0.0);
  constexpr bool simd_leg = k::simd::ops<T>::supported;
  print_label("kernels.spmv." + f, leg_taken<T>(kc, n, false));
  for (const char* kern : {"dot", "axpy", "xpby"})
    print_label(std::string("kernels.") + kern + "." + f,
                leg_taken<T>(kc, n, simd_leg));
  return cell;
}

}  // namespace

std::string replay_cg_kernels(const pstab::matrices::GeneratedMatrix& m,
                              LayerReport& lr) {
  using namespace pstab;
  core::SolveRequest req;
  req.solver = core::Solver::cg;
  req.matrix = m.spec.name;
  la::CgOptions o;
  o.tol = req.effective_tol();
  o.max_iter = req.effective_max_iter(m.n);
  o.kernels = req.kernel_context();
  o.resilience = req.resilient_options();
  const la::Vec<double> b = core::request_rhs(m, 0);
  core::CgRow row;
  row.matrix = m.spec.name;
  row.norm2 = m.spec.norm2;
  row.cond = m.spec.cond;
  row.f64 = cg_format<double>(m, b, o, "f64", lr);
  row.f32 = cg_format<float>(m, b, o, "f32", lr);
  row.p32_2 = cg_format<Posit32_2>(m, b, o, "p32_2", lr);
  row.p32_3 = cg_format<Posit32_3>(m, b, o, "p32_3", lr);
  // Bytes one SpMV touches in a 32-bit format, computed from the array
  // sizes (values + column indices + row pointers + x + y); the operands
  // fit in the last-level cache, so this is not measured traffic.
  const std::size_t nnz = m.csr.nnz(), n = std::size_t(m.n);
  lr.set("kernels.spmv.computed_bytes",
         double(nnz * (4 + 4) + (n + 1) * 4 + 2 * n * 4));
  return core::cg_row_json(row);
}

// ---------------------------------------------------------------------------
// serve_mix: the request sequence through a counting cache decorator

namespace {

/// Counts hits and misses per key kind ("matrix/...", "chol/...", ...) and
/// times each artifact from its miss to its put (the build time).
class CountingCache final : public pstab::core::ArtifactCache {
 public:
  explicit CountingCache(std::size_t bytes) : inner_(bytes) {}

  std::shared_ptr<const void> get(const std::string& key) override {
    auto v = inner_.get(key);
    const std::lock_guard<std::mutex> lock(mu_);
    Kind& kd = kinds_[kind_of(key)];
    if (v) {
      ++kd.hits;
    } else {
      ++kd.misses;
      miss_at_[key] = Clock::now();
    }
    return v;
  }

  void put(const std::string& key, std::shared_ptr<const void> value,
           std::size_t bytes) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (const auto it = miss_at_.find(key); it != miss_at_.end()) {
        kinds_[kind_of(key)].build_s.push_back(secs(it->second, Clock::now()));
        miss_at_.erase(it);
      }
    }
    inner_.put(key, std::move(value), bytes);
    const auto st = inner_.stats();
    const std::lock_guard<std::mutex> lock(mu_);
    peak_bytes_ = std::max(peak_bytes_, st.bytes);
  }

  struct Kind {
    std::uint64_t hits = 0, misses = 0;
    std::vector<double> build_s;
  };
  std::map<std::string, Kind> kinds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return kinds_;
  }
  std::size_t peak_bytes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return peak_bytes_;
  }
  /// Starts a new counting window: hits, misses and evictions from here on
  /// (build times are kept).
  void reset_counts() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [kind, kd] : kinds_) kd.hits = kd.misses = 0;
    evictions_before_ = inner_.stats().evictions;
  }
  std::uint64_t evictions_since_reset() const {
    return inner_.stats().evictions - evictions_before_;
  }

 private:
  static std::string kind_of(const std::string& key) {
    return key.substr(0, key.find('/'));
  }
  pstab::serve::Cache inner_;
  mutable std::mutex mu_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, Clock::time_point> miss_at_;
  std::size_t peak_bytes_ = 0;
  std::uint64_t evictions_before_ = 0;
};

}  // namespace

CacheReplay replay_serve_cache(
    const std::vector<pstab::core::SolveRequest>& warm,
    const std::vector<pstab::core::SolveRequest>& reqs,
    std::size_t cache_bytes, LayerReport& lr) {
  CacheReplay out;
  CountingCache cache(cache_bytes);
  for (const auto& req : warm) {
    Scope s("replay.serve_warm_up", -1, req.id);
    (void)pstab::core::run_request(req, &cache);
  }
  cache.reset_counts();
  for (const auto& req : reqs) {
    Scope s("replay.serve_request", -1, req.id);
    const auto t0 = Clock::now();
    const auto resp = pstab::core::run_request(req, &cache);
    out.service_s[req.id] = secs(t0, Clock::now());
    out.responses[req.id] = pstab::serve::response_json(resp);
  }
  const auto kinds = cache.kinds();
  for (const char* kind : kCacheKinds) {
    const auto it = kinds.find(kind);
    if (it == kinds.end()) continue;
    const auto& kd = it->second;
    const double looks = double(kd.hits + kd.misses);
    lr.set(std::string("serve.cache.") + kind + ".hit_frac",
           looks > 0 ? double(kd.hits) / looks : 0.0);
    lr.set(std::string("serve.cache.") + kind + ".build_ms",
           1e3 * median(kd.build_s));
    if (std::string(kind) == "lufact")
      lr.set("la.lu.factor_ms", 1e3 * median(kd.build_s));
  }
  lr.set("serve.cache.evictions", double(cache.evictions_since_reset()));
  lr.set("serve.cache.peak_bytes", double(cache.peak_bytes()));
  return out;
}

}  // namespace pbench
