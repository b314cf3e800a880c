// The serve subsystem end to end: the pstab-serve-v1 JSON parser and frame
// codec, the strict request parser and its golden wire bytes, the bounded
// LRU ArtifactCache, the work-stealing TaskPool, and the Engine itself —
// coalescing, response memoization (warm bytes == cold bytes), script
// replay, stream framing errors, and byte-determinism across PSTAB_THREADS.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel_for.hpp"
#include "core/solve_api.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace pstab;

// ---------------------------------------------------------------------------
// JSON parser

TEST(ServeJson, ParsesScalarsContainersAndEscapes) {
  serve::JsonValue v;
  std::string err;
  ASSERT_TRUE(serve::json_parse(
      R"({"a":[1,true,null,"xA\n"],"b":{"c":-2.5e3}})", v, err))
      << err;
  ASSERT_EQ(v.kind, serve::JsonValue::Kind::object);
  const serve::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_TRUE(a->items[1].boolean);
  EXPECT_EQ(a->items[2].kind, serve::JsonValue::Kind::null);
  EXPECT_EQ(a->items[3].raw, "xA\n");
  const serve::JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_EQ(b->find("c")->number, -2500.0);
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(ServeJson, PreservesUint64Tokens) {
  serve::JsonValue v;
  std::string err;
  ASSERT_TRUE(serve::json_parse("18446744073709551615", v, err)) << err;
  ASSERT_TRUE(v.is_uint());
  EXPECT_EQ(v.as_uint(), 18446744073709551615ull);
}

TEST(ServeJson, RejectsMalformedDocuments) {
  serve::JsonValue v;
  std::string err;
  EXPECT_FALSE(serve::json_parse("{} trailing", v, err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
  EXPECT_FALSE(serve::json_parse(R"({"a":})", v, err));
  EXPECT_FALSE(serve::json_parse("\"unterminated", v, err));
  EXPECT_FALSE(serve::json_parse("{\"a\":\"\x01\"}", v, err));  // raw control
  EXPECT_FALSE(serve::json_parse("", v, err));
}

TEST(ServeJson, RejectsExcessiveNesting) {
  std::string deep(80, '[');
  deep += std::string(80, ']');
  serve::JsonValue v;
  std::string err;
  EXPECT_FALSE(serve::json_parse(deep, v, err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Framing

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr mem_reader(const std::string& bytes) {
  return FilePtr(fmemopen(const_cast<char*>(bytes.data()), bytes.size(), "rb"));
}

TEST(ServeFraming, RoundTripsAndSignalsCleanEof) {
  std::string wire;
  serve::append_frame(wire, "hello");
  serve::append_frame(wire, "");
  FilePtr in = mem_reader(wire);
  ASSERT_NE(in, nullptr);
  std::string payload, err;
  EXPECT_EQ(serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
            serve::FrameRead::ok);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
            serve::FrameRead::ok);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
            serve::FrameRead::eof);
}

TEST(ServeFraming, RejectsOversizedLengthBeforeReadingPayload) {
  // A hostile 4 GiB length prefix with no payload behind it: the bound check
  // must fire on the prefix alone, without attempting the allocation.
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  std::string wire(reinterpret_cast<const char*>(prefix), 4);
  FilePtr in = mem_reader(wire);
  std::string payload, err;
  EXPECT_EQ(serve::read_frame(in.get(), payload, 1024, err),
            serve::FrameRead::error);
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(ServeFraming, TruncationIsAnErrorNotEof) {
  std::string wire;
  serve::append_frame(wire, "0123456789");
  wire.resize(wire.size() - 4);  // cut the payload short
  {
    FilePtr in = mem_reader(wire);
    std::string payload, err;
    EXPECT_EQ(
        serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
        serve::FrameRead::error);
  }
  {
    FilePtr in = mem_reader(std::string("\x05\x00", 2));  // half a prefix
    std::string payload, err;
    EXPECT_EQ(
        serve::read_frame(in.get(), payload, serve::kDefaultMaxFrame, err),
        serve::FrameRead::error);
  }
}

// ---------------------------------------------------------------------------
// Request parsing: goldens both directions

TEST(ServeRequest, GoldenWireBytes) {
  serve::Request req;
  req.solve.id = 1;
  req.solve.matrix = "bcsstk02";
  EXPECT_EQ(serve::request_to_json(req),
            R"({"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"cg",)"
            R"("matrix":"bcsstk02","rescale":false,"tol":0,"max_iter":0,)"
            R"("max_iter_per_n":0,"fused_dots":false,"history":false,)"
            R"("resilience":false,"rhs_seed":0,"budget":0,"kernels":"auto",)"
            R"("precision":{"factor":"grid","working":"f64",)"
            R"("residual":"auto"}})");
}

TEST(ServeRequest, ParseIsExactInverseOfSerialize) {
  serve::Request req;
  req.solve.id = 987654321098765ull;
  req.solve.solver = core::Solver::lu_ir;
  req.solve.matrix = "lund_b";
  req.solve.precision.factor = "bf16";
  req.solve.precision.residual = "quire";
  req.solve.rescale = true;
  req.solve.tol = 1e-8;
  req.solve.max_iter = 77;
  req.solve.max_iter_per_n = 3;
  req.solve.fused_dots = true;
  req.solve.record_history = true;
  req.solve.resilience = true;
  req.solve.rhs_seed = 42;
  req.solve.budget_ticks = 17;
  req.solve.backend = la::kernels::Backend::Batched;

  const std::string wire = serve::request_to_json(req);
  serve::Request back;
  std::string err;
  ASSERT_TRUE(serve::request_from_json(wire, back, err)) << err;
  EXPECT_EQ(serve::request_to_json(back), wire);
  EXPECT_EQ(back.solve.canonical_key(), req.solve.canonical_key());
  EXPECT_EQ(back.solve.id, req.solve.id);
  EXPECT_EQ(back.solve.backend, la::kernels::Backend::Batched);
}

TEST(ServeRequest, StatsAndShutdownTakeOnlyTheEnvelope) {
  serve::Request req;
  std::string err;
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"stats","id":9})", req, err))
      << err;
  EXPECT_EQ(req.op, serve::Op::stats);
  EXPECT_EQ(req.solve.id, 9u);
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"shutdown"})", req, err))
      << err;
  EXPECT_EQ(req.op, serve::Op::shutdown);
}

TEST(ServeRequest, StrictParserNamesTheOffender) {
  serve::Request req;
  std::string err;
  // Typos fail loudly instead of being silently dropped; the CLI's flags
  // go through the same rules.
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"solve","solver":"cg",)"
      R"("matrix":"bcsstk02","frobulate":true})",
      req, err));
  EXPECT_NE(err.find("frobulate"), std::string::npos) << err;
  // The panel-width knob selected nothing and is gone from the request.
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"cg","matrix":"x","block":0})",
      req, err));
  EXPECT_EQ(err, "unknown key 'block'");

  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-wrong","op":"solve"})", req, err));
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","op":"solve","matrix":"bcsstk02"})", req,
      err));
  EXPECT_NE(err.find("solver"), std::string::npos) << err;
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"sor","matrix":"x"})", req, err));
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"cg","matrix":"x",)"
      R"("kernels":"sse9"})",
      req, err));

  // Precision triple: strict about shape and member names too.
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"lu_ir","matrix":"x",)"
      R"("precision":{"factr":"f16"}})",
      req, err));
  EXPECT_NE(err.find("precision.factr"), std::string::npos) << err;
  EXPECT_FALSE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"lu_ir","matrix":"x",)"
      R"("precision":"f16"})",
      req, err));
  ASSERT_TRUE(serve::request_from_json(
      R"({"schema":"pstab-serve-v1","solver":"gmres-ir","matrix":"west0132",)"
      R"("precision":{"factor":"bf16","residual":"dd"}})",
      req, err))
      << err;
  EXPECT_EQ(req.solve.solver, core::Solver::gmres_ir);
  EXPECT_EQ(req.solve.precision.factor, "bf16");
  EXPECT_EQ(req.solve.precision.residual, "dd");
}

TEST(ServeRequest, OutOfRangeValuesAreRejectedNamingKeyAndValue) {
  // Each of these once parsed: narrowing to int turned the first into a
  // per-n cap that overflowed to a negative iteration count, and the
  // second into the default cap.
  for (const char* member :
       {R"("max_iter_per_n":2147483647)", R"("max_iter":4294967296)",
        R"("budget":1000000001)", R"("tol":1e999)", R"("tol":-1)",
        R"("rhs_seed":18446744073709551616)", R"("rescale":"yes")"}) {
    const std::string m = member;
    const std::string key = m.substr(1, m.find('"', 1) - 1);
    const std::string value = m.substr(m.find(':') + 1);
    serve::Request req;
    std::string err;
    EXPECT_FALSE(serve::request_from_json(
        R"({"schema":"pstab-serve-v1","solver":"cg","matrix":"bcsstk01",)" +
            m + "}",
        req, err))
        << m;
    EXPECT_NE(err.find("key '" + key + "'"), std::string::npos) << err;
    EXPECT_NE(err.find("got " + value), std::string::npos) << err;
  }
}

// canonical_key() lists the fields by hand; a wire field missing from it
// would let the serve memo answer one request with another's bytes.  Change
// each field in turn: the canonical key moves every time, the batch key
// for every field but the right-hand side.
TEST(ServeRequest, CanonicalKeyCoversEveryWireField) {
  using R = core::SolveRequest&;
  const std::vector<std::pair<const char*, void (*)(R)>> changes = {
      {"solver", [](R r) { r.solver = core::Solver::lu_ir; }},
      {"matrix", [](R r) { r.matrix = "gre_216a"; }},
      {"rescale", [](R r) { r.rescale = true; }},
      {"tol", [](R r) { r.tol = 1e-9; }},
      {"max_iter", [](R r) { r.max_iter = 5; }},
      {"max_iter_per_n", [](R r) { r.max_iter_per_n = 2; }},
      {"fused_dots", [](R r) { r.fused_dots = true; }},
      {"history", [](R r) { r.record_history = true; }},
      {"resilience", [](R r) { r.resilience = true; }},
      {"rhs_seed", [](R r) { r.rhs_seed = 3; }},
      {"budget", [](R r) { r.budget_ticks = 40; }},
      {"kernels", [](R r) { r.backend = la::kernels::Backend::Simd; }},
      {"factor", [](R r) { r.precision.factor = "bf16"; }},
      {"working", [](R r) { r.precision.working = "f32"; }},
      {"residual", [](R r) { r.precision.residual = "quire"; }},
  };
  serve::Request base;
  base.solve.solver = core::Solver::gmres_ir;
  base.solve.matrix = "west0132";
  // The list above is every wire field but the schema/op/id envelope.
  serve::JsonValue wire;
  std::string err;
  ASSERT_TRUE(serve::json_parse(serve::request_to_json(base), wire, err));
  std::size_t fields = 0;
  for (const auto& [key, v] : wire.members)
    fields += key == "precision" ? v.members.size() : 1;
  EXPECT_EQ(fields, changes.size() + 3);
  const core::SolveRequest& a = base.solve;
  for (const auto& [name, change] : changes) {
    core::SolveRequest b = a;
    change(b);
    EXPECT_NE(b.canonical_key(), a.canonical_key()) << name;
    EXPECT_EQ(b.batch_key() == a.batch_key(), std::string(name) == "rhs_seed")
        << name;
  }
}

TEST(ServeResponse, EnvelopeGoldens) {
  EXPECT_EQ(serve::error_response_json(3, "boom"),
            R"({"schema":"pstab-serve-v1","id":3,"ok":false,"error":"boom"})");
  EXPECT_EQ(serve::result_response_json(1, R"({"x":1})"),
            R"({"schema":"pstab-serve-v1","id":1,"ok":true,"result":{"x":1}})");
}

// ---------------------------------------------------------------------------
// Cache

std::shared_ptr<const void> blob(int tag) {
  return std::make_shared<const int>(tag);
}

TEST(ServeCache, CountsHitsAndMisses) {
  serve::Cache c(1024);
  EXPECT_EQ(c.get("a"), nullptr);
  c.put("a", blob(1), 100);
  EXPECT_NE(c.get("a"), nullptr);
  const serve::Cache::Stats st = c.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.bytes, 100u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedFirst) {
  serve::Cache c(250);
  c.put("a", blob(1), 100);
  c.put("b", blob(2), 100);
  EXPECT_NE(c.get("a"), nullptr);  // touch: "b" is now the LRU entry
  c.put("c", blob(3), 100);        // over budget -> evict "b"
  EXPECT_EQ(c.get("b"), nullptr);
  EXPECT_NE(c.get("a"), nullptr);
  EXPECT_NE(c.get("c"), nullptr);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().entries, 2u);
}

TEST(ServeCache, OversizedEntriesAreNeverAdmitted) {
  serve::Cache c(100);
  c.put("huge", blob(1), 101);
  EXPECT_EQ(c.get("huge"), nullptr);
  EXPECT_EQ(c.stats().insertions, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
}

// ---------------------------------------------------------------------------
// TaskPool

TEST(ServePool, RunsEverySubmittedJob) {
  TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_EQ(done.load(), 200);
  EXPECT_EQ(pool.unhandled_exceptions(), 0u);
}

TEST(ServePool, CountsUnhandledExceptionsInsteadOfDying) {
  TaskPool pool(2);
  std::atomic<int> done{0};
  pool.submit([] { throw std::runtime_error("job failure"); });
  pool.submit([&] { done.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(done.load(), 1);
  EXPECT_EQ(pool.unhandled_exceptions(), 1u);
}

// ---------------------------------------------------------------------------
// Engine

core::SolveRequest small_cg(std::uint64_t id, std::uint64_t seed = 0) {
  core::SolveRequest r;
  r.id = id;
  r.matrix = "bcsstk02";
  r.rhs_seed = seed;
  return r;
}

TEST(ServeEngine, WarmResponseIsByteIdenticalAndFlaggedAsMemoHit) {
  serve::EngineOptions opt;
  opt.threads = 2;
  serve::Engine engine(opt);

  std::mutex mu;
  std::vector<core::SolveResponse> got;
  const auto collect = [&](const core::SolveResponse& r) {
    const std::lock_guard<std::mutex> lock(mu);
    got.push_back(r);
  };

  engine.submit(small_cg(1), collect);
  engine.drain();
  engine.submit(small_cg(2), collect);
  engine.drain();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].ok);
  EXPECT_FALSE(got[0].cache_hit);
  EXPECT_TRUE(got[1].ok);
  EXPECT_TRUE(got[1].cache_hit);
  // The memo flag lives only in memory: the serialized bytes differ in the
  // id alone, so a warm result body is exactly the cold one.
  EXPECT_EQ(got[0].result_json, got[1].result_json);
  const serve::EngineStats st = engine.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.solved, 2u);
  EXPECT_EQ(st.memo_hits, 1u);
  EXPECT_GT(st.cache.hits, 0u);
}

TEST(ServeEngine, CoalescesQueuedRequestsSharingABatchKey) {
  serve::EngineOptions opt;
  opt.threads = 1;  // one worker: the burst queues behind the first solve
  serve::Engine engine(opt);
  std::atomic<int> done{0};
  const auto count = [&](const core::SolveResponse&) { done.fetch_add(1); };
  engine.submit(small_cg(1, 1), count);
  engine.submit(small_cg(2, 2), count);  // same batch_key, different RHS
  engine.submit(small_cg(3, 3), count);
  engine.drain();
  EXPECT_EQ(done.load(), 3);
  const serve::EngineStats st = engine.stats();
  EXPECT_EQ(st.solved, 3u);
  // At minimum the two trailing submissions cannot outrun the queue they
  // join; allow the first to have started already.
  EXPECT_GE(st.coalesced, 1u);
  EXPECT_LE(st.batches, 2u);
}

TEST(ServeEngine, UnknownMatrixYieldsAnErrorResponse) {
  serve::Engine engine;
  core::SolveRequest bad = small_cg(5);
  bad.matrix = "not_a_matrix";
  core::SolveResponse resp;
  std::mutex mu;
  engine.submit(bad, [&](const core::SolveResponse& r) {
    const std::lock_guard<std::mutex> lock(mu);
    resp = r;
  });
  engine.drain();
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("not_a_matrix"), std::string::npos) << resp.error;
  EXPECT_EQ(engine.stats().errors, 1u);
}

const char* kScript =
    R"({"schema":"pstab-serve-v1","op":"solve","id":3,"solver":"cg","matrix":"bcsstk02"}
{"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"chol","matrix":"bcsstk02","rescale":true}

{"schema":"pstab-serve-v1","op":"solve","id":2,"solver":"cg","matrix":"bcsstk02","rhs_seed":7}
not json at all
)";

TEST(ServeEngine, ScriptReplaySortsByIdAndAnswersErrorsInline) {
  serve::Engine engine;
  const std::vector<std::string> out = engine.run_script(kScript);
  ASSERT_EQ(out.size(), 4u);
  // The unparseable line could salvage no id, so its error row carries id 0
  // and sorts first; the solves follow in id order whatever the submission
  // interleaving was.
  EXPECT_NE(out[0].find("\"id\":0"), std::string::npos);
  EXPECT_NE(out[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":1"), std::string::npos);
  EXPECT_NE(out[2].find("\"id\":2"), std::string::npos);
  EXPECT_NE(out[3].find("\"id\":3"), std::string::npos);
  for (int i = 1; i < 4; ++i)
    EXPECT_NE(out[i].find("\"ok\":true"), std::string::npos) << out[i];
}

TEST(ServeEngine, ShutdownOpStopsTheReplay) {
  serve::Engine engine;
  const std::string script =
      std::string(R"({"schema":"pstab-serve-v1","op":"solve","id":1,)"
                  R"("solver":"cg","matrix":"bcsstk02"})") +
      "\n" + R"({"schema":"pstab-serve-v1","op":"shutdown","id":2})" + "\n" +
      R"({"schema":"pstab-serve-v1","op":"solve","id":3,"solver":"cg",)" +
      R"("matrix":"bcsstk02"})" + "\n";
  const std::vector<std::string> out = engine.run_script(script);
  // The solve before the shutdown answers; the one after is never submitted.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":2"), std::string::npos);
}

TEST(ServeEngine, StreamAnswersFramesAndTreatsBadFramingAsTerminal) {
  serve::Engine engine;
  std::string wire;
  serve::append_frame(
      wire,
      R"({"schema":"pstab-serve-v1","op":"solve","id":4,"solver":"cg",)"
      R"("matrix":"bcsstk02"})");
  serve::append_frame(wire, "{\"schema\":\"pstab-serve-v1\",\"op\":42}");
  wire += std::string("\x20\x00\x00", 3);  // truncated prefix: terminal error

  FilePtr in = mem_reader(wire);
  ASSERT_NE(in, nullptr);
  char* out_buf = nullptr;
  std::size_t out_len = 0;
  FilePtr out(open_memstream(&out_buf, &out_len));
  ASSERT_NE(out, nullptr);

  EXPECT_EQ(engine.serve_stream(in.get(), out.get()),
            serve::Engine::StreamEnd::frame_error);
  out.reset();  // flush the memstream

  // Two response frames: the solve and the per-request JSON error.
  const std::string bytes(out_buf, out_len);
  std::free(out_buf);
  FilePtr replies = mem_reader(bytes);
  std::string payload, err;
  int ok_count = 0, err_count = 0;
  while (serve::read_frame(replies.get(), payload, serve::kDefaultMaxFrame,
                           err) == serve::FrameRead::ok) {
    if (payload.find("\"ok\":true") != std::string::npos) ++ok_count;
    if (payload.find("\"ok\":false") != std::string::npos) ++err_count;
  }
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(err_count, 1);
}

class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* v) {
    const char* old = std::getenv("PSTAB_THREADS");
    if (old) saved_ = old;
    had_ = old != nullptr;
    setenv("PSTAB_THREADS", v, 1);
  }
  ~ThreadsEnv() {
    if (had_)
      setenv("PSTAB_THREADS", saved_.c_str(), 1);
    else
      unsetenv("PSTAB_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(ServeEngine, ResponsesAreByteIdenticalAcrossThreadCounts) {
  std::string script;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    serve::Request req;
    req.solve = small_cg(id, id % 3);
    req.solve.solver = (id % 2 != 0u) ? core::Solver::cg : core::Solver::cholesky;
    req.solve.rescale = id % 4 == 0;
    script += serve::request_to_json(req);
    script += '\n';
  }
  const auto run = [&](const char* threads) {
    ThreadsEnv env(threads);
    serve::Engine engine;  // threads = 0: latches PSTAB_THREADS
    return engine.run_script(script);
  };
  const std::vector<std::string> one = run("1");
  const std::vector<std::string> eight = run("8");
  ASSERT_EQ(one.size(), 8u);
  EXPECT_EQ(one, eight);
}

// ---------------------------------------------------------------------------
// The CLI parser: the wire parser's rules behind a flag table

struct CliResult {
  bool ok = false;
  serve::Request req;  // req.solve is the parsed request
  std::string json_path, err;
};

CliResult parse_cli(std::vector<std::string> args) {
  args.insert(args.begin(), {"pstab", "lu-ir", "bcsstk02"});
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  CliResult r;
  r.ok = serve::request_from_cli(core::Solver::lu_ir, "bcsstk02",
                                 int(argv.size()), argv.data(), 3, r.req.solve,
                                 r.json_path, r.err);
  return r;
}

TEST(ServeCli, UnknownFlagNamesTheToken) {
  const CliResult p = parse_cli({"--frobulate"});
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.err.find("--frobulate"), std::string::npos) << p.err;
}

TEST(ServeCli, FlagMissingItsValueNamesTheFlag) {
  for (const char* flag : {"--tol", "--json", "--factor"}) {
    const CliResult p = parse_cli({flag});
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.err.find(flag), std::string::npos) << p.err;
  }
}

TEST(ServeCli, UnknownBackendNamesTheToken) {
  const CliResult p = parse_cli({"--kernels", "sse9"});
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.err.find("sse9"), std::string::npos) << p.err;
}

TEST(ServeCli, BadValuesAreRejectedNamingKeyAndValue) {
  // strtod/strtol once ran each of these silently: the first two with the
  // defaults, the budget as 1 tick.
  for (const auto& [flag, value, key] :
       {std::array<std::string, 3>{"--max-iter", "abc", "max_iter"},
        {"--tol", "banana", "tol"},
        {"--budget", "4294967297", "budget"},
        {"--rhs-seed", "-1", "rhs_seed"}}) {
    const CliResult p = parse_cli({flag, value});
    EXPECT_FALSE(p.ok) << flag;
    EXPECT_NE(p.err.find("key '" + key + "'"), std::string::npos) << p.err;
    EXPECT_NE(p.err.find(value), std::string::npos) << p.err;
  }
  EXPECT_EQ(parse_cli({"--block", "128"}).err, "unknown flag '--block'");
}

// Every flag and its wire key give the same request, byte for byte; --json
// names the artifact and stays out of the request.
TEST(ServeCli, EachFlagMatchesItsWireKey) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--rescale"}, R"("rescale":true)"},
      {{"--higham"}, R"("rescale":true)"},
      {{"--fused"}, R"("fused_dots":true)"},
      {{"--history"}, R"("history":true)"},
      {{"--resilience"}, R"("resilience":true)"},
      {{"--tol", "1e-8"}, R"("tol":1e-8)"},
      {{"--max-iter", "77"}, R"("max_iter":77)"},
      {{"--max-iter-per-n", "3"}, R"("max_iter_per_n":3)"},
      {{"--rhs-seed", "18446744073709551615"},
       R"("rhs_seed":18446744073709551615)"},
      {{"--budget", "1000000000"}, R"("budget":1000000000)"},
      {{"--kernels", "batched"}, R"("kernels":"batched")"},
      {{"--factor", "bf16"}, R"("precision":{"factor":"bf16"})"},
      {{"--working", "f32"}, R"("precision":{"working":"f32"})"},
      {{"--residual", "quire", "--factor", "f16", "--json", "out.json"},
       R"("precision":{"residual":"quire","factor":"f16"})"},
  };
  const std::string no_flags = serve::request_to_json(parse_cli({}).req);
  for (const auto& [flags, members] : cases) {
    const CliResult p = parse_cli(flags);
    ASSERT_TRUE(p.ok) << p.err;
    serve::Request wire;
    std::string err;
    ASSERT_TRUE(serve::request_from_json(
        R"({"schema":"pstab-serve-v1","solver":"lu_ir","matrix":"bcsstk02",)" +
            members + "}",
        wire, err))
        << err;
    EXPECT_EQ(serve::request_to_json(p.req), serve::request_to_json(wire));
    EXPECT_NE(serve::request_to_json(p.req), no_flags) << flags[0];
    EXPECT_EQ(p.json_path, flags.back() == "out.json" ? "out.json" : "");
  }
}

}  // namespace
