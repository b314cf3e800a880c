#include "core/kernels_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "core/report_json.hpp"
#include "ieee/softfloat.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/kernels/kernels.hpp"
#include "posit/posit.hpp"

namespace pstab::core {

namespace {

using clock_type = std::chrono::steady_clock;

// Ops/second of fn(), in millions.  One untimed warm-up call, then several
// independent ~40 ms windows; the best window is reported.  Taking the max
// over windows rejects interference from other processes (the uncontended
// speed is what a window hits when nothing else is running), which single
// long windows average in as phantom slowdown.
template <class Fn>
double measure_mops(double ops_per_call, Fn&& fn) {
  fn();
  double best = 0.0;
  for (int w = 0; w < 5; ++w) {
    int calls = 0;
    const auto t0 = clock_type::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(clock_type::now() - t0).count();
    } while (elapsed < 0.04);
    best = std::max(best, ops_per_call * calls / elapsed / 1e6);
  }
  return best;
}

template <class T>
bool bits_equal(const la::Vec<T>& a, const la::Vec<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T>
bool bits_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class T>
void bench_format(const char* name, int n, int gemv_rows,
                  std::vector<KernelBenchRow>& out) {
  const la::kernels::Context sc{la::kernels::Backend::Scalar};
  const la::kernels::Context bc{la::kernels::Backend::Batched};
  const la::kernels::Context vc{la::kernels::Backend::Simd};

  std::mt19937_64 rng(0x9e3779b97f4a7c15ull);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Vec<double> xd(n, 0.0), yd(n, 0.0);
  for (auto& v : xd) v = dist(rng);
  for (auto& v : yd) v = dist(rng);
  const auto x = la::kernels::from_double_vec<T>(xd);
  const auto y = la::kernels::from_double_vec<T>(yd);
  const T alpha = scalar_traits<T>::from_double(dist(rng));

  {
    KernelBenchRow row{"dot", name, n};
    const T ds = la::kernels::dot(sc, x, y);
    const T db = la::kernels::dot(bc, x, y);
    const T dv = la::kernels::dot(vc, x, y);
    row.identical = bits_equal(ds, db);
    row.simd_identical = bits_equal(ds, dv);
    volatile double sink = 0;  // keep the reductions observable
    row.scalar_mops = measure_mops(2.0 * n, [&] {
      sink = scalar_traits<T>::to_double(la::kernels::dot(sc, x, y));
    });
    row.batched_mops = measure_mops(2.0 * n, [&] {
      sink = scalar_traits<T>::to_double(la::kernels::dot(bc, x, y));
    });
    row.simd_mops = measure_mops(2.0 * n, [&] {
      sink = scalar_traits<T>::to_double(la::kernels::dot(vc, x, y));
    });
    (void)sink;
    out.push_back(row);
  }
  {
    KernelBenchRow row{"axpy", name, n};
    auto ys = y, yb = y, yv = y;
    la::kernels::axpy(sc, alpha, x, ys);
    la::kernels::axpy(bc, alpha, x, yb);
    la::kernels::axpy(vc, alpha, x, yv);
    row.identical = bits_equal(ys, yb);
    row.simd_identical = bits_equal(ys, yv);
    auto yw = y;
    row.scalar_mops =
        measure_mops(2.0 * n, [&] { la::kernels::axpy(sc, alpha, x, yw); });
    yw = y;
    row.batched_mops =
        measure_mops(2.0 * n, [&] { la::kernels::axpy(bc, alpha, x, yw); });
    yw = y;
    row.simd_mops =
        measure_mops(2.0 * n, [&] { la::kernels::axpy(vc, alpha, x, yw); });
    out.push_back(row);
  }
  {
    KernelBenchRow row{"gemv", name, n};
    la::Dense<double> Ad(gemv_rows, n);
    for (int i = 0; i < gemv_rows; ++i)
      for (int j = 0; j < n; ++j) Ad(i, j) = dist(rng);
    const auto A = Ad.template cast<T>();
    la::Vec<T> ys, yb, yv;
    la::kernels::gemv(sc, A, x, ys);
    la::kernels::gemv(bc, A, x, yb);
    la::kernels::gemv(vc, A, x, yv);
    row.identical = bits_equal(ys, yb);
    row.simd_identical = bits_equal(ys, yv);
    la::Vec<T> yw;
    const double ops = 2.0 * gemv_rows * n;
    row.scalar_mops =
        measure_mops(ops, [&] { la::kernels::gemv(sc, A, x, yw); });
    row.batched_mops =
        measure_mops(ops, [&] { la::kernels::gemv(bc, A, x, yw); });
    row.simd_mops =
        measure_mops(ops, [&] { la::kernels::gemv(vc, A, x, yw); });
    out.push_back(row);
  }
  {
    // Banded n x n CSR (half-bandwidth 3, the shape of a 1-D stencil).
    KernelBenchRow row{"spmv", name, n};
    std::vector<std::tuple<int, int, double>> trips;
    for (int i = 0; i < n; ++i)
      for (int j = std::max(0, i - 3); j <= std::min(n - 1, i + 3); ++j)
        trips.emplace_back(i, j, dist(rng));
    const auto A = la::Csr<double>::from_triplets(n, n, std::move(trips))
                       .template cast<T>();
    la::Vec<T> ys, yb, yv;
    la::kernels::spmv(sc, A, x, ys);
    la::kernels::spmv(bc, A, x, yb);
    la::kernels::spmv(vc, A, x, yv);
    row.identical = bits_equal(ys, yb);
    row.simd_identical = bits_equal(ys, yv);
    la::Vec<T> yw;
    const double ops = 2.0 * double(A.nnz());
    row.scalar_mops =
        measure_mops(ops, [&] { la::kernels::spmv(sc, A, x, yw); });
    row.batched_mops =
        measure_mops(ops, [&] { la::kernels::spmv(bc, A, x, yw); });
    row.simd_mops =
        measure_mops(ops, [&] { la::kernels::spmv(vc, A, x, yw); });
    out.push_back(row);
  }
}

}  // namespace

std::vector<KernelBenchRow> run_kernels_bench(int n, int gemv_rows) {
  std::vector<KernelBenchRow> rows;
  bench_format<Posit16_1>("posit16_1", n, gemv_rows, rows);
  bench_format<Posit32_2>("posit32_2", n, gemv_rows, rows);
  bench_format<Posit32_3>("posit32_3", n, gemv_rows, rows);
  bench_format<Half>("half", n, gemv_rows, rows);
  return rows;
}

std::string kernels_results_json(const std::vector<KernelBenchRow>& rows,
                                 int n) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pstab-results-v1");
  w.key("experiment").value("kernels");
  w.key("options").begin_object();
  w.key("n").value(n);
  w.key("default_backend")
      .value(la::kernels::to_string(la::kernels::default_backend()));
  w.key("simd_isa")
      .value(la::kernels::simd::isa_name(la::kernels::simd::active_isa()));
  w.end_object();
  w.key("rows").begin_array();
  for (const auto& r : rows) {
    w.begin_object();
    w.key("kernel").value(r.kernel);
    w.key("format").value(r.format);
    w.key("n").value(r.n);
    w.key("scalar_mops").value(r.scalar_mops);
    w.key("batched_mops").value(r.batched_mops);
    w.key("simd_mops").value(r.simd_mops);
    w.key("speedup").value(r.speedup());
    w.key("simd_speedup").value(r.simd_speedup());
    w.key("identical").value(r.identical);
    w.key("simd_identical").value(r.simd_identical);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace pstab::core
