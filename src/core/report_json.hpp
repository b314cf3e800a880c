// Structured JSON run artifacts ("pstab-results-v1").
//
// Every experiment driver can serialise its result grid to a small JSON
// document so runs become machine-readable artifacts (RESULTS_*.json) instead
// of console-only tables.  Two invariants make the artifacts diff-friendly:
//
//   * Determinism: keys are emitted in fixed order, doubles print with %.17g
//     (round-trip exact), NaN/Inf become null, and nothing time- or
//     thread-dependent is ever written.  The same experiment on the same
//     machine produces byte-identical files whatever PSTAB_THREADS is.
//   * Self-description: each document carries a "schema" tag and the options
//     the run used, so a reader never has to guess which experiment variant
//     produced a file (tools/check_results_schema.py validates this shape).
//
// Telemetry counters (core/telemetry) are embedded as a "telemetry" array
// when any were recorded; drift sums are excluded there because their
// floating-point accumulation order depends on the thread schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.hpp"

namespace pstab::core {

/// Minimal deterministic JSON builder.  The caller is responsible for
/// structural validity (matched begin/end, key before value in objects);
/// the writer handles commas, escaping and number formatting.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Object member key; follow with exactly one value or container.
  JsonWriter& key(const std::string& k);
  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s);
  JsonWriter& value(double d);  // NaN/Inf -> null, else %.17g
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(int i);
  JsonWriter& value(bool b);
  JsonWriter& null();

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma();
  std::string out_;
  std::vector<bool> need_comma_;  // per open container
};

/// Serialise one experiment grid of CgRow, CholRow, IrRow, LuIrRow or
/// GmresIrRow rows (explicitly instantiated for those five).  `experiment`
/// names the run (e.g. "cg", "cg_rescaled") and becomes the document's
/// "experiment" field; `req` is the unified request the rows were produced
/// from (its options are recorded in the document's "options" block for
/// provenance).
template <class Row>
std::string results_json(const std::string& experiment,
                         const std::vector<Row>& rows,
                         const SolveRequest& req);

/// One result row as a standalone JSON object — exactly the bytes the same
/// row gets inside a grid document's "rows" array.  serve responses embed
/// these, which is what makes a serve result byte-comparable to an artifact
/// row (and cache-hit responses byte-identical to cold solves).
std::string cg_row_json(const CgRow& row);
std::string cholesky_row_json(const CholRow& row);
std::string ir_row_json(const IrRow& row);
std::string lu_ir_row_json(const LuIrRow& row);
std::string gmres_ir_row_json(const GmresIrRow& row);

/// The current telemetry snapshot as a standalone document (same header
/// fields, "experiment": "telemetry").
std::string telemetry_results_json();

/// Write `text` to `path` (truncating).  Returns false on I/O failure; the
/// bench drivers warn rather than abort so console output still lands.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace pstab::core
