#include "core/report_json.hpp"

#include <cmath>
#include <cstdio>

#include "core/telemetry/telemetry.hpp"
#include "la/solve_report.hpp"

namespace pstab::core {

// ---------------------------------------------------------------------------
// JsonWriter

void JsonWriter::comma() {
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  need_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  need_comma_.pop_back();
  out_ += ']';
  return *this;
}

namespace {
void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}
}  // namespace

JsonWriter& JsonWriter::key(const std::string& k) {
  comma();
  append_escaped(out_, k);
  out_ += ':';
  need_comma_.back() = false;  // the member's value completes without a comma
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& s) {
  comma();
  append_escaped(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(const char* s) { return value(std::string(s)); }

JsonWriter& JsonWriter::value(double d) {
  comma();
  if (!std::isfinite(d)) {
    out_ += "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out_ += buf;
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(u));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(int i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Documents

namespace {

void header(JsonWriter& w, const std::string& experiment) {
  w.key("schema").value("pstab-results-v1");
  w.key("experiment").value(experiment);
}

// History and recovery tails shared by every cell shape.  Recovery events
// (shift rungs, CG restarts) are deterministic — iteration index, action
// string, parameter — so they are safe in byte-stable artifacts.
void report_tail(JsonWriter& w, const la::SolveReport& r) {
  if (!r.history.empty()) {
    w.key("history").begin_array();
    for (const double h : r.history) w.value(h);
    w.end_array();
  }
  if (!r.recovery.empty()) {
    w.key("recovery").begin_array();
    for (const auto& e : r.recovery) {
      w.begin_object();
      w.key("iteration").value(e.iteration);
      w.key("action").value(e.action);
      w.key("value").value(e.value);
      w.end_object();
    }
    w.end_array();
  }
}

// One emitter for CG and Cholesky cells alike: since CholCell became a
// la::SolveReport (PR 2's unification, finished here), the bespoke
// {ok, backward_error} writer and its duplicated extra-digits plumbing are
// gone — a direct solve serializes with status/iterations/residuals like
// every iterative one.
void solve_report(JsonWriter& w, const la::SolveReport& r) {
  w.begin_object();
  w.key("status").value(la::to_string(r.status));
  w.key("iterations").value(r.iterations);
  w.key("final_relres").value(r.final_relres);
  w.key("true_relres").value(r.true_relres);
  report_tail(w, r);
  w.end_object();
}

void ir_cell(JsonWriter& w, const la::IrReport& r) {
  w.begin_object();
  w.key("status").value(la::to_string(r.status));
  w.key("iterations").value(r.iterations);
  w.key("final_berr").value(r.final_berr);
  w.key("factorization_error").value(r.factorization_error);
  w.key("chol_status").value(la::to_string(r.chol_status));
  report_tail(w, r);
  w.end_object();
}

// Unified options block: one writer for every experiment family, keyed off
// the request's solver (replaces the per-struct blocks).  The refinement
// family additionally records its (u_f, u, u_r) precision triple, with the
// residual "auto" resolved so the artifact states what actually ran.
void request_options(JsonWriter& w, const SolveRequest& req) {
  const bool refinement = req.solver == Solver::ir ||
                          req.solver == Solver::lu_ir ||
                          req.solver == Solver::gmres_ir;
  w.key("options").begin_object();
  w.key("solver").value(to_string(req.solver));
  w.key("rescale").value(req.rescale);
  w.key("tol").value(req.effective_tol());
  w.key("max_iter").value(req.solver == Solver::ir ? req.effective_max_iter(0)
                                                   : req.max_iter);
  if (req.solver == Solver::cg) {
    w.key("max_iter_per_n")
        .value(req.max_iter_per_n > 0 ? req.max_iter_per_n : 15);
    w.key("fused_dots").value(req.fused_dots);
  }
  w.key("resilience").value(req.resilience);
  w.key("rhs_seed").value(std::uint64_t(req.rhs_seed));
  w.key("kernels").value(la::kernels::to_string(req.backend));
  if (refinement) {
    w.key("precision").begin_object();
    w.key("factor").value(req.precision.factor);
    w.key("working").value(req.precision.working);
    w.key("residual").value(req.effective_residual());
    w.end_object();
  }
  w.end_object();
}

void write_row(JsonWriter& w, const CgRow& r) {
  w.begin_object();
  w.key("matrix").value(r.matrix);
  w.key("norm2").value(r.norm2);
  w.key("cond").value(r.cond);
  w.key("f64");
  solve_report(w, r.f64);
  w.key("f32");
  solve_report(w, r.f32);
  w.key("p32_2");
  solve_report(w, r.p32_2);
  w.key("p32_3");
  solve_report(w, r.p32_3);
  w.key("pct_improvement_p32_2").value(r.pct_improvement(r.p32_2));
  w.key("pct_improvement_p32_3").value(r.pct_improvement(r.p32_3));
  w.end_object();
}

void write_row(JsonWriter& w, const CholRow& r) {
  w.begin_object();
  w.key("matrix").value(r.matrix);
  w.key("norm2").value(r.norm2);
  w.key("f64");
  solve_report(w, r.f64);
  w.key("f32");
  solve_report(w, r.f32);
  w.key("p32_2");
  solve_report(w, r.p32_2);
  w.key("p32_3");
  solve_report(w, r.p32_3);
  w.key("extra_digits_p32_2").value(r.extra_digits(r.p32_2));
  w.key("extra_digits_p32_3").value(r.extra_digits(r.p32_3));
  w.end_object();
}

// General-systems refinement cell: the LU analogue of ir_cell, plus the
// GMRES inner-iteration total (0 for plain LU-IR).
void lu_ir_cell(JsonWriter& w, const la::LuIrReport& r) {
  w.begin_object();
  w.key("status").value(la::to_string(r.status));
  w.key("iterations").value(r.iterations);
  w.key("final_berr").value(r.final_berr);
  w.key("factorization_error").value(r.factorization_error);
  w.key("lu_status").value(la::to_string(r.lu_status));
  w.key("inner_iterations").value(r.inner_iterations);
  report_tail(w, r);
  w.end_object();
}

void write_row(JsonWriter& w, const LuIrRow& r) {
  w.begin_object();
  w.key("matrix").value(r.matrix);
  w.key("norm2").value(r.norm2);
  w.key("cond").value(r.cond);
  w.key("cells").begin_array();
  for (const auto& c : r.cells) {
    w.begin_object();
    w.key("format").value(c.format);
    w.key("report");
    lu_ir_cell(w, c.rep);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_row(JsonWriter& w, const GmresIrRow& r) {
  w.begin_object();
  w.key("matrix").value(r.matrix);
  w.key("norm2").value(r.norm2);
  w.key("cond").value(r.cond);
  w.key("cells").begin_array();
  for (const auto& c : r.cells) {
    w.begin_object();
    w.key("format").value(c.format);
    w.key("lu");
    lu_ir_cell(w, c.lu);
    w.key("gmres");
    lu_ir_cell(w, c.gmres);
    w.key("rescued").value(c.rescued());
    w.end_object();
  }
  w.end_array();
  w.key("rescue_count").value(r.rescue_count());
  w.end_object();
}

void write_row(JsonWriter& w, const IrRow& r) {
  w.begin_object();
  w.key("matrix").value(r.matrix);
  w.key("f16");
  ir_cell(w, r.f16);
  w.key("p16_1");
  ir_cell(w, r.p16_1);
  w.key("p16_2");
  ir_cell(w, r.p16_2);
  w.key("pct_reduction").value(r.pct_reduction());
  w.end_object();
}

// Telemetry block.  Deliberately omits drift sums/means: those are
// floating-point accumulations whose order depends on the thread schedule, and
// the artifacts promise thread-count independence.  Integer event counts and
// the drift max/sample-count are exact whatever the schedule.
void telemetry_section(JsonWriter& w) {
  w.key("telemetry").begin_array();
  for (const auto& f : telemetry::snapshot()) {
    if (f.total_ops() == 0 && f.regime_total() == 0 && f.drift_samples == 0)
      continue;  // registered but idle formats would just be noise
    w.begin_object();
    w.key("format").value(f.format);
    w.key("events").begin_object();
    for (int e = 0; e < telemetry::kEventCount; ++e)
      w.key(telemetry::event_name(static_cast<telemetry::Event>(e)))
          .value(f.events[e]);
    w.end_object();
    int top = telemetry::kRegimeBuckets;
    while (top > 0 && f.regime_hist[top - 1] == 0) --top;
    w.key("regime_hist").begin_array();
    for (int i = 0; i < top; ++i) w.value(f.regime_hist[i]);
    w.end_array();
    if (f.drift_samples > 0) {
      w.key("max_rel_drift").value(f.max_rel_drift);
      w.key("drift_samples").value(f.drift_samples);
    }
    w.end_object();
  }
  w.end_array();
}

template <class Row>
std::string row_json(const Row& row) {
  JsonWriter w;
  write_row(w, row);
  return w.str();
}

}  // namespace

template <class Row>
std::string results_json(const std::string& experiment,
                         const std::vector<Row>& rows,
                         const SolveRequest& req) {
  JsonWriter w;
  w.begin_object();
  header(w, experiment);
  request_options(w, req);
  w.key("rows").begin_array();
  for (const auto& r : rows) write_row(w, r);
  w.end_array();
  telemetry_section(w);
  w.end_object();
  return w.str() + "\n";
}

#define PSTAB_RESULTS_JSON(Row)                                       \
  template std::string results_json(const std::string&,               \
                                    const std::vector<Row>&,          \
                                    const SolveRequest&);
PSTAB_RESULTS_JSON(CgRow)
PSTAB_RESULTS_JSON(CholRow)
PSTAB_RESULTS_JSON(IrRow)
PSTAB_RESULTS_JSON(LuIrRow)
PSTAB_RESULTS_JSON(GmresIrRow)
#undef PSTAB_RESULTS_JSON

std::string cg_row_json(const CgRow& row) { return row_json(row); }
std::string cholesky_row_json(const CholRow& row) { return row_json(row); }
std::string ir_row_json(const IrRow& row) { return row_json(row); }
std::string lu_ir_row_json(const LuIrRow& row) { return row_json(row); }
std::string gmres_ir_row_json(const GmresIrRow& row) { return row_json(row); }

std::string telemetry_results_json() {
  JsonWriter w;
  w.begin_object();
  header(w, "telemetry");
  telemetry_section(w);
  w.end_object();
  return w.str() + "\n";
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace pstab::core
