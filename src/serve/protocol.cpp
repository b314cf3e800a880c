#include "serve/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <iterator>

#include "core/report_json.hpp"

namespace pstab::serve {

// ---------------------------------------------------------------------------
// JsonValue

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& m : members)
    if (m.first == key) return &m.second;
  return nullptr;
}

bool JsonValue::is_uint() const noexcept {
  if (kind != Kind::number || raw.empty()) return false;
  for (const char c : raw)
    if (c < '0' || c > '9') return false;  // no sign, no '.', no exponent
  // Fits in 64 bits: shorter than 2^64's 20 digits, or not above it.
  return raw.size() < 20 ||
         (raw.size() == 20 && raw <= "18446744073709551615");
}

std::uint64_t JsonValue::as_uint() const noexcept {
  return std::strtoull(raw.c_str(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string& err) : t_(text), err_(err) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != t_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    err_ = "json: " + msg + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < t_.size() &&
           (t_[pos_] == ' ' || t_[pos_] == '\t' || t_[pos_] == '\n' ||
            t_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool eof() const { return pos_ >= t_.size(); }
  [[nodiscard]] char peek() const { return t_[pos_]; }

  bool expect(char c) {
    if (eof() || t_[pos_] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool literal(const char* word, JsonValue& out, JsonValue::Kind kind,
               bool b) {
    const std::size_t len = std::strlen(word);
    if (t_.size() - pos_ < len || t_.substr(pos_, len) != word)
      return fail("invalid literal");
    pos_ += len;
    out.kind = kind;
    out.boolean = b;
    out.raw = word;
    return true;
  }

  bool string_body(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (!eof()) {
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      const char e = t_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (t_.size() - pos_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = t_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // Encode as UTF-8 (surrogate pairs are not recombined; the
          // protocol's strings are ASCII in practice).
          if (code < 0x80) {
            out += char(code);
          } else if (code < 0x800) {
            out += char(0xC0 | (code >> 6));
            out += char(0x80 | (code & 0x3F));
          } else {
            out += char(0xE0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3F));
            out += char(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool number_body(JsonValue& out) {
    const std::size_t start = pos_;
    if (!eof() && t_[pos_] == '-') ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(t_[pos_]))) ++pos_;
    if (!eof() && t_[pos_] == '.') {
      ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    if (!eof() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
      ++pos_;
      if (!eof() && (t_[pos_] == '+' || t_[pos_] == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    out.raw = std::string(t_.substr(start, pos_ - start));
    if (out.raw.empty() || out.raw == "-") return fail("invalid number");
    out.kind = JsonValue::Kind::number;
    out.number = std::strtod(out.raw.c_str(), nullptr);
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth_ > 64) return fail("nesting too deep");
    const bool ok = value_inner(out);
    --depth_;
    return ok;
  }

  bool value_inner(JsonValue& out) {
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': {
        ++pos_;
        out.kind = JsonValue::Kind::object;
        skip_ws();
        if (!eof() && peek() == '}') { ++pos_; return true; }
        for (;;) {
          skip_ws();
          std::string key;
          if (!string_body(key)) return false;
          skip_ws();
          if (!expect(':')) return false;
          JsonValue v;
          if (!value(v)) return false;
          out.members.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (eof()) return fail("unterminated object");
          if (peek() == ',') { ++pos_; continue; }
          return expect('}');
        }
      }
      case '[': {
        ++pos_;
        out.kind = JsonValue::Kind::array;
        skip_ws();
        if (!eof() && peek() == ']') { ++pos_; return true; }
        for (;;) {
          JsonValue v;
          if (!value(v)) return false;
          out.items.push_back(std::move(v));
          skip_ws();
          if (eof()) return fail("unterminated array");
          if (peek() == ',') { ++pos_; continue; }
          return expect(']');
        }
      }
      case '"':
        out.kind = JsonValue::Kind::string;
        return string_body(out.raw);
      case 't': return literal("true", out, JsonValue::Kind::boolean, true);
      case 'f': return literal("false", out, JsonValue::Kind::boolean, false);
      case 'n': return literal("null", out, JsonValue::Kind::null, false);
      default: return number_body(out);
    }
  }

  std::string_view t_;
  std::string& err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string& err) {
  out = JsonValue{};
  return Parser(text, err).parse(out);
}

// ---------------------------------------------------------------------------
// Framing

void append_frame(std::string& out, std::string_view payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4] = {char(len & 0xFF), char((len >> 8) & 0xFF),
                    char((len >> 16) & 0xFF), char((len >> 24) & 0xFF)};
  out.append(prefix, 4);
  out.append(payload.data(), payload.size());
}

bool write_frame(std::FILE* out, std::string_view payload) {
  std::string buf;
  buf.reserve(payload.size() + 4);
  append_frame(buf, payload);
  return std::fwrite(buf.data(), 1, buf.size(), out) == buf.size() &&
         std::fflush(out) == 0;
}

FrameRead read_frame(std::FILE* in, std::string& payload,
                     std::size_t max_frame, std::string& err) {
  unsigned char prefix[4];
  const std::size_t got = std::fread(prefix, 1, 4, in);
  if (got == 0 && std::feof(in)) return FrameRead::eof;
  if (got != 4) {
    err = "truncated frame length prefix";
    return FrameRead::error;
  }
  const std::uint32_t len = std::uint32_t(prefix[0]) |
                            (std::uint32_t(prefix[1]) << 8) |
                            (std::uint32_t(prefix[2]) << 16) |
                            (std::uint32_t(prefix[3]) << 24);
  if (len > max_frame) {
    // Reject before allocating: a corrupt or hostile prefix must not become
    // a multi-gigabyte resize.
    err = "frame of " + std::to_string(len) + " bytes exceeds the " +
          std::to_string(max_frame) + "-byte bound";
    return FrameRead::error;
  }
  payload.resize(len);
  if (len > 0 && std::fread(payload.data(), 1, len, in) != len) {
    err = "truncated frame payload";
    return FrameRead::error;
  }
  return FrameRead::ok;
}

// ---------------------------------------------------------------------------
// Requests

namespace {

constexpr const char* kOpNames[] = {"solve", "stats", "shutdown"};  // by Op

bool parse_op(const std::string& s, Op& out) {
  for (std::size_t i = 0; i < std::size(kOpNames); ++i)
    if (s == kOpNames[i]) { out = Op(i); return true; }
  return false;
}

using V = const JsonValue&;

bool type_error(std::string& err, const std::string& key, const char* want,
                V v) {
  // The value as the request spelled it (a string cut to 64 bytes).
  err = "key '" + key + "' must be " + want + ", got ";
  if (v.kind == JsonValue::Kind::string)
    err.append("\"").append(v.raw, 0, 64).append("\"");
  else if (v.kind == JsonValue::Kind::object) err += "an object";
  else if (v.kind == JsonValue::Kind::array) err += "an array";
  else err += v.raw;  // number token or literal
  return false;
}

// Value rules: each stores the value into its request member only when the
// value passes.
using Solve = core::SolveRequest;
template <class T, class U>
bool store(bool pass, T& out, const U& value) {
  if (pass) out = T(value);
  return pass;
}
template <bool Solve::*M>
bool boolean(V v, Solve& s) {
  return store(v.kind == JsonValue::Kind::boolean, s.*M, v.boolean);
}
template <std::uint64_t Solve::*M>
bool u64(V v, Solve& s) {
  return store(v.is_uint(), s.*M, v.as_uint());
}
// Iteration caps and tick budgets share one bound, so a cap times a matrix
// order fits in 64 bits and every count fits the request's int.
template <int Solve::*M>
bool count(V v, Solve& s) {
  return store(v.is_uint() && v.as_uint() <= 1000000000u, s.*M, v.as_uint());
}
template <std::string core::PrecisionTriple::*M>
bool triple(V v, Solve& s) {
  return store(v.kind == JsonValue::Kind::string, s.precision.*M, v.raw);
}
bool matrix(V v, Solve& s) {
  return store(v.kind == JsonValue::Kind::string, s.matrix, v.raw);
}
bool tolerance(V v, Solve& s) {
  return store(v.kind == JsonValue::Kind::number && std::isfinite(v.number) &&
                   v.number >= 0,
               s.tol, v.number);
}
// A registry name, through its parser (core::parse_solver / parse_backend).
template <auto M, auto Parse>
bool named(V v, Solve& s) {
  return v.kind == JsonValue::Kind::string && Parse(v.raw, s.*M);
}

constexpr const char* kBoolean = "a boolean";
constexpr const char* kCount = "an integer in [0, 1000000000]";
constexpr const char* kUint = "a non-negative integer";
constexpr const char* kString = "a string";

// One row per request field: its wire key ("precision.x" is member x of the
// nested triple), the CLI flag that sets it (the kBoolean rows are switches)
// and the rule that reads it.  The wire and the CLI both parse through this
// table, so a flag and its key accept exactly the same values.  Value checks
// that depend on the solver (known formats, resilience) are
// core::SolveRequest::precision_error's, run by the CLI and by run_request.
struct Field {
  const char* key;
  const char* flag;  // nullptr = wire only
  const char* want;  // "key 'K' must be <want>, got <value>"
  bool (*read)(V, Solve&);
};
const Field kFields[] = {
    {"id", nullptr, kUint, u64<&Solve::id>},
    {"solver", nullptr,
     "a registry solver name (\"cg\", \"cholesky\", \"ir\", \"lu_ir\", "
     "\"gmres_ir\") or alias",
     named<&Solve::solver, core::parse_solver>},
    {"matrix", nullptr, kString, matrix},
    {"rescale", "--rescale", kBoolean, boolean<&Solve::rescale>},
    {"tol", "--tol", "a finite non-negative number", tolerance},
    {"max_iter", "--max-iter", kCount, count<&Solve::max_iter>},
    {"max_iter_per_n", "--max-iter-per-n", kCount,
     count<&Solve::max_iter_per_n>},
    {"fused_dots", "--fused", kBoolean, boolean<&Solve::fused_dots>},
    {"history", "--history", kBoolean, boolean<&Solve::record_history>},
    {"resilience", "--resilience", kBoolean, boolean<&Solve::resilience>},
    {"rhs_seed", "--rhs-seed", kUint, u64<&Solve::rhs_seed>},
    {"budget", "--budget", kCount, count<&Solve::budget_ticks>},
    {"kernels", "--kernels", "\"scalar\", \"batched\", \"simd\" or \"auto\"",
     named<&Solve::backend, core::parse_backend>},
    {"precision.factor", "--factor", kString,
     triple<&core::PrecisionTriple::factor>},
    {"precision.working", "--working", kString,
     triple<&core::PrecisionTriple::working>},
    {"precision.residual", "--residual", kString,
     triple<&core::PrecisionTriple::residual>},
};

/// The rule for one field, over an already-parsed value: the one place a
/// request field is parsed and validated, for the wire and the CLI alike.
bool read_field(const std::string& key, V v, Solve& s, std::string& err) {
  for (const Field& f : kFields)
    if (key == f.key)
      return f.read(v, s) || type_error(err, key, f.want, v);
  err = "unknown key '" + key + "'";
  return false;
}

}  // namespace

bool request_from_json(std::string_view text, Request& out, std::string& err) {
  out = Request{};
  JsonValue doc;
  if (!json_parse(text, doc, err)) return false;
  if (doc.kind != JsonValue::Kind::object) {
    err = "request must be a JSON object";
    return false;
  }
  const JsonValue* schema = doc.find("schema");
  if (!schema || schema->kind != JsonValue::Kind::string ||
      schema->raw != kSchema) {
    err = std::string("schema must be \"") + kSchema + "\"";
    return false;
  }
  for (const auto& [key, v] : doc.members) {
    if (key == "schema") continue;
    if (key == "op") {
      if (v.kind != JsonValue::Kind::string || !parse_op(v.raw, out.op))
        return type_error(err, key, "\"solve\", \"stats\" or \"shutdown\"", v);
    } else if (key == "precision") {
      if (v.kind != JsonValue::Kind::object)
        return type_error(err, key, "an object", v);
      for (const auto& [member, mv] : v.members)
        if (!read_field("precision." + member, mv, out.solve, err))
          return false;
    } else if (key.find('.') != std::string::npos) {
      err = "unknown key '" + key + "'";  // dotted keys live in "precision"
      return false;
    } else if (!read_field(key, v, out.solve, err)) {
      return false;
    }
  }
  if (out.op == Op::solve) {
    if (!doc.find("solver")) { err = "missing key 'solver'"; return false; }
    if (!doc.find("matrix")) { err = "missing key 'matrix'"; return false; }
  }
  return true;
}

bool request_from_cli(core::Solver solver, const std::string& matrix,
                      int argc, char** argv, int first,
                      core::SolveRequest& out, std::string& json_path,
                      std::string& err) {
  out = core::SolveRequest{};
  out.solver = solver;
  out.matrix = matrix;
  for (int i = first; i < argc; ++i) {
    // --higham is IR's spelling of --rescale (its scaling is Higham's).
    const std::string a = std::strcmp(argv[i], "--higham") == 0 ? "--rescale"
                                                                : argv[i];
    const Field* f = nullptr;
    for (const Field& c : kFields)
      if (c.flag && a == c.flag) f = &c;
    if (!f && a != "--json") { err = "unknown flag '" + a + "'"; return false; }
    const bool is_switch = f && f->want == kBoolean;
    if (!is_switch && i + 1 >= argc) {
      err = "flag '" + a + "' requires a value";
      return false;
    }
    if (!f) { json_path = argv[++i]; continue; }
    JsonValue v;
    v.kind = JsonValue::Kind::boolean;
    v.boolean = true;
    // A value token is a JSON number when it parses as one, else a string.
    if (std::string ignored;
        !is_switch && (!json_parse(argv[++i], v, ignored) ||
                       v.kind != JsonValue::Kind::number)) {
      v = JsonValue{};
      v.kind = JsonValue::Kind::string;
      v.raw = argv[i];
    }
    if (!read_field(f->key, v, out, err)) return false;
  }
  return true;
}

std::string request_to_json(const Request& req) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("op").value(kOpNames[int(req.op)]);
  w.key("id").value(std::uint64_t(req.solve.id));
  if (req.op == Op::solve) {
    const core::SolveRequest& s = req.solve;
    w.key("solver").value(core::to_string(s.solver));
    w.key("matrix").value(s.matrix);
    w.key("rescale").value(s.rescale);
    w.key("tol").value(s.tol);
    w.key("max_iter").value(s.max_iter);
    w.key("max_iter_per_n").value(s.max_iter_per_n);
    w.key("fused_dots").value(s.fused_dots);
    w.key("history").value(s.record_history);
    w.key("resilience").value(s.resilience);
    w.key("rhs_seed").value(std::uint64_t(s.rhs_seed));
    w.key("budget").value(s.budget_ticks);
    w.key("kernels").value(la::kernels::to_string(s.backend));
    w.key("precision").begin_object();
    w.key("factor").value(s.precision.factor);
    w.key("working").value(s.precision.working);
    w.key("residual").value(s.precision.residual);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Responses

std::string result_response_json(std::uint64_t id,
                                 const std::string& result_object) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("id").value(id);
  w.key("ok").value(true);
  w.end_object();
  // Splice the pre-serialized result row in verbatim so the response body is
  // byte-identical to the artifact row (JsonWriter would re-escape it).
  std::string out = w.str();
  out.pop_back();  // '}'
  out += ",\"result\":";
  out += result_object;
  out += '}';
  return out;
}

std::string error_response_json(std::uint64_t id, const std::string& error) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("id").value(id);
  w.key("ok").value(false);
  w.key("error").value(error);
  w.end_object();
  return w.str();
}

std::string response_json(const core::SolveResponse& resp) {
  return resp.ok ? result_response_json(resp.id, resp.result_json)
                 : error_response_json(resp.id, resp.error);
}

}  // namespace pstab::serve
