// Unit tests for the serving layer's building blocks: the JSON
// round-trip (the determinism contract needs exact bytes through the
// wire), content hashing, the LRU result cache, and the protocol
// parser/serializers.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "core/counter_matrix.hpp"
#include "jobs/job.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "serve/content_hash.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"

namespace perspector::serve {
namespace {

// ---- json ----------------------------------------------------------------

std::string round_trip(const std::string& text) {
  const json::Value parsed = json::parse("{\"k\":" + json::quoted(text) + "}");
  return parsed.find("k")->string;
}

TEST(ServeJson, QuoteParseRoundTripIsExact) {
  EXPECT_EQ(round_trip(""), "");
  EXPECT_EQ(round_trip("plain text"), "plain text");
  EXPECT_EQ(round_trip("line\nbreaks\tand \"quotes\" \\ back"),
            "line\nbreaks\tand \"quotes\" \\ back");
  // Every control byte must survive (reports never contain them, but the
  // escaper must not be the component that assumes that).
  std::string control;
  for (int c = 1; c < 0x20; ++c) control.push_back(static_cast<char>(c));
  EXPECT_EQ(round_trip(control), control);
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(round_trip("caf\xc3\xa9 \xe2\x82\xac"), "caf\xc3\xa9 \xe2\x82\xac");
}

TEST(ServeJson, ParsesEscapesAndSurrogatePairs) {
  const json::Value v = json::parse(R"({"s":"a\u0041\n\u00e9\ud83d\ude00"})");
  EXPECT_EQ(v.find("s")->string, "aA\n\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(ServeJson, ParsesNumbersBoolsNullArrays) {
  const json::Value v =
      json::parse(R"({"n":-12.5e1,"t":true,"f":false,"z":null,"a":[1,2]})");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -125.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_EQ(v.find("z")->type, json::Value::Type::Null);
  ASSERT_EQ(v.find("a")->elements.size(), 2u);
  EXPECT_DOUBLE_EQ(v.find("a")->elements[1].number, 2.0);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), std::runtime_error);
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":01}"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"bad\":\"\\q\"}"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
}

TEST(ServeJson, FindReturnsFirstMatchOrNull) {
  const json::Value v = json::parse(R"({"a":1,"a":2})");
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(json::parse("[1]").find("a"), nullptr);  // not an object
}

// ---- content hashing ------------------------------------------------------

core::CounterMatrix tiny_matrix(const std::string& name, double seed) {
  la::Matrix values{{seed, seed + 1.0}, {seed + 2.0, seed + 3.0}};
  return core::CounterMatrix(name, {"w0", "w1"}, {"c0", "c1"}, values);
}

TEST(ServeContentHash, SensitiveToEveryField) {
  const auto digest = [](const core::CounterMatrix& m) {
    ContentHasher hasher;
    hash_counter_matrix(hasher, m);
    return hasher.digest();
  };
  const Key128 base = digest(tiny_matrix("suite", 1.0));
  EXPECT_EQ(base, digest(tiny_matrix("suite", 1.0)));  // deterministic
  EXPECT_NE(base, digest(tiny_matrix("other", 1.0)));  // name matters
  EXPECT_NE(base, digest(tiny_matrix("suite", 1.0 + 1e-12)));  // bits matter
}

TEST(ServeContentHash, LengthPrefixPreventsConcatenationAliases) {
  const Key128 a = ContentHasher().str("ab").str("c").digest();
  const Key128 b = ContentHasher().str("a").str("bc").digest();
  EXPECT_NE(a, b);
  EXPECT_NE(ContentHasher().str("").digest(), ContentHasher().digest());
}

// ---- result cache ---------------------------------------------------------

Key128 key_of(std::uint64_t n) { return ContentHasher().u64(n).digest(); }

TEST(ServeResultCache, EvictsLeastRecentlyUsed) {
  // Budget fits exactly two entries of this size.
  const std::string report(256, 'r');
  const std::size_t entry = report.size() + ResultCache::kEntryOverhead;
  ResultCache cache(2 * entry);

  cache.put(key_of(1), report);
  cache.put(key_of(2), report);
  ASSERT_EQ(cache.entries(), 2u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  cache.put(key_of(3), report);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  EXPECT_FALSE(cache.get(key_of(2)).has_value());
  EXPECT_TRUE(cache.get(key_of(3)).has_value());
}

TEST(ServeResultCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.put(key_of(1), "report");
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.get(key_of(1)).has_value());
}

TEST(ServeResultCache, OversizedValueIsNotCached) {
  ResultCache cache(64);
  cache.put(key_of(1), std::string(1024, 'x'));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ServeResultCache, PutRefreshesExistingEntry) {
  ResultCache cache(1 << 20);
  cache.put(key_of(1), "old");
  cache.put(key_of(1), "new");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.get(key_of(1)).value(), "new");
}

// ---- protocol -------------------------------------------------------------

TEST(ServeProtocol, ParsesBuiltinScoreRequest) {
  const ParsedRequest parsed = parse_request_line(
      R"({"id":7,"op":"score","suite":"nbench","instructions":20000,"events":"llc","deadline_ms":250})");
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.op, Op::Score);
  EXPECT_EQ(parsed.id, "7");  // numeric ids echo as integer text
  EXPECT_EQ(parsed.score.builtin, "nbench");
  EXPECT_EQ(parsed.score.instructions, 20000u);
  EXPECT_EQ(parsed.score.events, "llc");
  EXPECT_EQ(parsed.score.deadline_ms, 250u);
}

TEST(ServeProtocol, ParsesInlineCsvRequest) {
  const ParsedRequest parsed = parse_request_line(
      R"({"id":"c","name":"mini","csv":"workload,c0,c1\na,1,2\nb,3,4\n"})");
  ASSERT_TRUE(parsed.ok) << parsed.message;
  ASSERT_NE(parsed.score.data, nullptr);
  EXPECT_EQ(parsed.score.data->suite_name(), "mini");
  EXPECT_EQ(parsed.score.data->num_workloads(), 2u);
}

TEST(ServeProtocol, BadRequestsAreStructuredNotThrown) {
  EXPECT_EQ(parse_request_line("not json").error, "bad_request");
  EXPECT_EQ(parse_request_line("[1,2]").error, "bad_request");
  // Both or neither of suite/csv.
  EXPECT_FALSE(parse_request_line(R"({"op":"score"})").ok);
  EXPECT_FALSE(
      parse_request_line(R"({"suite":"nbench","csv":"workload,c0\n"})").ok);
  // Invalid numerics.
  EXPECT_FALSE(
      parse_request_line(R"({"suite":"nbench","instructions":-5})").ok);
  EXPECT_FALSE(parse_request_line(R"({"suite":"nbench","instructions":0})").ok);
  // CSV errors surface with the reader's line-numbered message.
  const ParsedRequest bad_csv =
      parse_request_line(R"({"csv":"workload,c0\na,nan\n"})");
  EXPECT_FALSE(bad_csv.ok);
  EXPECT_NE(bad_csv.message.find("non-finite"), std::string::npos);
}

TEST(ServeProtocol, ParsesControlOps) {
  EXPECT_EQ(parse_request_line(R"({"op":"ping"})").op, Op::Ping);
  EXPECT_EQ(parse_request_line(R"({"op":"metrics"})").op, Op::Metrics);
  EXPECT_EQ(parse_request_line(R"({"op":"shutdown"})").op, Op::Shutdown);
  EXPECT_FALSE(parse_request_line(R"({"op":"dance"})").ok);
}

TEST(ServeProtocol, SerializeResponseRoundTripsReportBytes) {
  ScoreResponse response;
  response.id = "r1";
  response.ok = true;
  response.cache_hit = true;
  response.report = "line one\n| table | cells |\n\ttabbed\n";
  const std::string line = serialize_response(response);
  EXPECT_EQ(line.back(), '\n');
  const json::Value parsed = json::parse(line);
  EXPECT_EQ(parsed.find("id")->string, "r1");
  EXPECT_TRUE(parsed.find("ok")->boolean);
  EXPECT_EQ(parsed.find("cache")->string, "hit");
  EXPECT_EQ(parsed.find("report")->string, response.report);
}

TEST(ServeProtocol, SerializeErrorCarriesCodeAndMessage) {
  const json::Value parsed =
      json::parse(serialize_error("x", "overloaded", "queue full"));
  EXPECT_FALSE(parsed.find("ok")->boolean);
  EXPECT_EQ(parsed.find("error")->string, "overloaded");
  EXPECT_EQ(parsed.find("message")->string, "queue full");
}

// ---- mutate ops -----------------------------------------------------------

TEST(ServeProtocol, ParsesMutateOps) {
  const ParsedRequest load = parse_request_line(
      R"({"id":"1","op":"load_suite","suite":"live","csv":"workload,c0\na,1\n","series_csv":"workload,counter,sample,value\na,c0,0,1\n","events":"llc","deadline_ms":50})");
  ASSERT_TRUE(load.ok) << load.message;
  EXPECT_EQ(load.op, Op::Mutate);
  EXPECT_EQ(load.mutate.op, MutateOp::LoadSuite);
  EXPECT_EQ(load.mutate.suite, "live");
  EXPECT_EQ(load.mutate.csv_text, "workload,c0\na,1\n");
  EXPECT_EQ(load.mutate.series_text,
            "workload,counter,sample,value\na,c0,0,1\n");
  EXPECT_EQ(load.mutate.events, "llc");
  EXPECT_EQ(load.mutate.deadline_ms, 50u);

  const ParsedRequest drop = parse_request_line(
      R"({"op":"drop_workload","suite":"live","workload":"a"})");
  ASSERT_TRUE(drop.ok);
  EXPECT_EQ(drop.mutate.op, MutateOp::DropWorkload);
  EXPECT_EQ(drop.mutate.workload, "a");

  const ParsedRequest append = parse_request_line(
      R"({"op":"append_samples","suite":"live","series_csv":"workload,counter,sample,value\na,c0,1,2\n"})");
  ASSERT_TRUE(append.ok);
  EXPECT_EQ(append.mutate.op, MutateOp::AppendSamples);

  const ParsedRequest add = parse_request_line(
      R"({"op":"add_workload","suite":"live","csv":"workload,c0\nb,2\n"})");
  ASSERT_TRUE(add.ok);
  EXPECT_EQ(add.mutate.op, MutateOp::AddWorkload);
}

TEST(ServeProtocol, MutateOpsValidateTheirRequiredFields) {
  // Every op needs a suite name.
  EXPECT_FALSE(parse_request_line(R"({"op":"load_suite","csv":"x"})").ok);
  // load_suite / add_workload need an aggregate payload.
  EXPECT_FALSE(parse_request_line(R"({"op":"load_suite","suite":"s"})").ok);
  EXPECT_FALSE(parse_request_line(R"({"op":"add_workload","suite":"s"})").ok);
  // drop_workload needs the workload, append_samples the series payload.
  EXPECT_FALSE(
      parse_request_line(R"({"op":"drop_workload","suite":"s"})").ok);
  EXPECT_FALSE(
      parse_request_line(R"({"op":"append_samples","suite":"s"})").ok);
}

TEST(ServeProtocol, MutateRequestForwardingRoundTrips) {
  MutateRequest request;
  request.id = "m7";
  request.op = MutateOp::AddWorkload;
  request.suite = "live";
  request.csv_text = "workload,c0\nb,2\n";
  request.series_text = "workload,counter,sample,value\nb,c0,0,2\n";
  request.events = "llc";
  request.trace_id = 0x9f86d081884c7d65ull;

  const ParsedRequest parsed =
      parse_request_line(serialize_mutate_request(request));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  ASSERT_EQ(parsed.op, Op::Mutate);
  EXPECT_EQ(parsed.mutate.id, "m7");
  EXPECT_EQ(parsed.mutate.op, MutateOp::AddWorkload);
  EXPECT_EQ(parsed.mutate.suite, request.suite);
  EXPECT_EQ(parsed.mutate.csv_text, request.csv_text);
  EXPECT_EQ(parsed.mutate.series_text, request.series_text);
  EXPECT_EQ(parsed.mutate.events, "llc");
  EXPECT_EQ(parsed.mutate.trace_id, request.trace_id);
}

TEST(ServeProtocol, MutateResponseRoundTripsExactly) {
  MutateResponse response;
  response.id = "m1";
  response.ok = true;
  response.suite = "live";
  response.version = 3;
  response.cache_hit = true;
  response.report = "report\nwith | table |\n";
  response.trace_id = 0xabcdef0123456789ull;

  MutateResponse back;
  ASSERT_TRUE(
      parse_mutate_response(serialize_mutate_response(response), back));
  EXPECT_EQ(back.id, response.id);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.suite, "live");
  EXPECT_EQ(back.version, 3u);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.report, response.report);
  EXPECT_EQ(back.trace_id, response.trace_id);

  // Error shape: same bytes as a score error, still parseable.
  MutateResponse error;
  error.id = "m2";
  error.error = "bad_request";
  error.message = "unknown resident suite 'x' (load_suite first)";
  MutateResponse error_back;
  ASSERT_TRUE(
      parse_mutate_response(serialize_mutate_response(error), error_back));
  EXPECT_FALSE(error_back.ok);
  EXPECT_EQ(error_back.error, "bad_request");
  EXPECT_EQ(error_back.message, error.message);
  EXPECT_FALSE(parse_mutate_response("not json", error_back));
}

// ---- wire pins --------------------------------------------------------------
//
// Literal bytes of every line the serializers emit. The router's byte
// identity and every client script depend on these exact strings, so a
// codec change must leave each one untouched.

constexpr std::uint64_t kTrace = 0x9f86d081884c7d65ull;

TEST(ServeWirePins, ScoreResponses) {
  ScoreResponse ok;
  ok.id = "r1";
  ok.ok = true;
  ok.cache_hit = true;
  ok.report = "a\nb\t\"q\" \\ \x01";
  EXPECT_EQ(serialize_response(ok),
            "{\"id\":\"r1\",\"ok\":true,\"cache\":\"hit\","
            "\"report\":\"a\\nb\\t\\\"q\\\" \\\\ \\u0001\"}\n");
  ok.id.clear();
  ok.cache_hit = false;
  ok.trace_id = kTrace;
  ok.report = "r";
  EXPECT_EQ(serialize_response(ok),
            "{\"ok\":true,\"cache\":\"miss\",\"trace\":\"9f86d081884c7d65\","
            "\"report\":\"r\"}\n");

  ScoreResponse error;
  error.id = "e";
  error.error = "internal";
  error.message = "boom";
  EXPECT_EQ(serialize_response(error),
            "{\"id\":\"e\",\"ok\":false,\"error\":\"internal\","
            "\"message\":\"boom\"}\n");
  error.trace_id = 0xab;
  EXPECT_EQ(serialize_response(error),
            "{\"id\":\"e\",\"ok\":false,\"error\":\"internal\","
            "\"message\":\"boom\",\"trace\":\"00000000000000ab\"}\n");
  EXPECT_EQ(serialize_error("", "overloaded", "queue full"),
            "{\"ok\":false,\"error\":\"overloaded\",\"message\":\"queue "
            "full\"}\n");
}

TEST(ServeWirePins, MutateResponses) {
  MutateResponse ok;
  ok.id = "m0";
  ok.ok = true;
  ok.suite = "live";
  ok.version = 3;
  ok.report = "rep\n";
  EXPECT_EQ(serialize_mutate_response(ok),
            "{\"id\":\"m0\",\"ok\":true,\"suite\":\"live\",\"version\":3,"
            "\"cache\":\"miss\",\"report\":\"rep\\n\"}\n");
  ok.cache_hit = true;
  ok.trace_id = kTrace;
  EXPECT_EQ(serialize_mutate_response(ok),
            "{\"id\":\"m0\",\"ok\":true,\"suite\":\"live\",\"version\":3,"
            "\"cache\":\"hit\",\"trace\":\"9f86d081884c7d65\","
            "\"report\":\"rep\\n\"}\n");

  MutateResponse error;
  error.id = "m1";
  error.error = "bad_request";
  error.message = "unknown resident suite 'x'";
  error.trace_id = 1;
  EXPECT_EQ(serialize_mutate_response(error),
            "{\"id\":\"m1\",\"ok\":false,\"error\":\"bad_request\","
            "\"message\":\"unknown resident suite 'x'\","
            "\"trace\":\"0000000000000001\"}\n");
}

jobs::JobStatus pinned_status() {
  jobs::JobStatus status;
  status.id = "0123456789abcdef";
  status.state = jobs::JobState::Running;
  status.client = "alice";
  status.evaluated = 5;
  status.total = 8;
  return status;
}

jobs::BestCandidate pinned_best() {
  jobs::BestCandidate best;
  best.valid = true;
  best.candidate = 3;
  best.deviation_pct = 0.1;
  best.per_score_deviation_pct = {1.0, 2.5, -0.0, 1e-300};
  best.indices = {1, 4};
  best.names = {"a", "b\"c"};
  return best;
}

constexpr const char* kPinnedBest =
    "\"best\":{\"candidate\":3,\"deviation_pct\":0.10000000000000001,"
    "\"per_score_deviation_pct\":[1,2.5,-0,1e-300],"
    "\"indices\":[1,4],\"subset\":[\"a\",\"b\\\"c\"]}";

TEST(ServeWirePins, JobResponses) {
  JobResponse submit;
  submit.id = "s";
  submit.op = JobOp::Submit;
  submit.ok = true;
  submit.status = pinned_status();
  submit.status.state = jobs::JobState::Queued;
  submit.duplicate = true;
  EXPECT_EQ(serialize_job_response(submit),
            "{\"id\":\"s\",\"ok\":true,\"job\":\"0123456789abcdef\","
            "\"state\":\"queued\",\"client\":\"alice\",\"evaluated\":5,"
            "\"total\":8,\"resumed\":false,\"duplicate\":true}\n");

  JobResponse status;
  status.op = JobOp::Status;
  status.ok = true;
  status.status = pinned_status();
  status.status.state = jobs::JobState::Failed;
  status.status.resumed = true;
  status.status.best = pinned_best();
  status.status.error = "disk full";
  status.trace_id = kTrace;
  EXPECT_EQ(serialize_job_response(status),
            std::string("{\"ok\":true,\"job\":\"0123456789abcdef\","
                        "\"state\":\"failed\",\"client\":\"alice\","
                        "\"evaluated\":5,\"total\":8,\"resumed\":true,") +
                kPinnedBest +
                ",\"detail\":\"disk full\",\"trace\":\"9f86d081884c7d65\"}\n");

  JobResponse watch;
  watch.id = "w";
  watch.op = JobOp::Watch;
  watch.ok = true;
  watch.status = pinned_status();
  watch.next = 4;
  jobs::JobProgress plain;
  plain.seq = 2;
  plain.evaluated = 1;
  plain.total = 8;
  jobs::JobProgress with_best = plain;
  with_best.seq = 3;
  with_best.best = pinned_best();
  watch.progress = {plain, with_best};
  EXPECT_EQ(serialize_job_response(watch),
            std::string("{\"id\":\"w\",\"ok\":true,"
                        "\"job\":\"0123456789abcdef\",\"state\":\"running\","
                        "\"client\":\"alice\",\"evaluated\":5,\"total\":8,"
                        "\"resumed\":false,\"progress\":[{\"seq\":2,"
                        "\"evaluated\":1,\"total\":8},{\"seq\":3,"
                        "\"evaluated\":1,\"total\":8,") +
                kPinnedBest + "}],\"next\":4}\n");
  watch.progress.clear();
  EXPECT_EQ(serialize_job_response(watch),
            "{\"id\":\"w\",\"ok\":true,\"job\":\"0123456789abcdef\","
            "\"state\":\"running\",\"client\":\"alice\",\"evaluated\":5,"
            "\"total\":8,\"resumed\":false,\"progress\":[],\"next\":4}\n");

  JobResponse cancel;
  cancel.id = "c";
  cancel.op = JobOp::Cancel;
  cancel.ok = true;
  cancel.status = pinned_status();
  cancel.status.state = jobs::JobState::Cancelled;
  cancel.status.client.clear();
  cancel.worker = 2;
  EXPECT_EQ(serialize_job_response(cancel),
            "{\"id\":\"c\",\"ok\":true,\"job\":\"0123456789abcdef\","
            "\"state\":\"cancelled\",\"client\":\"\",\"evaluated\":5,"
            "\"total\":8,\"resumed\":false,\"worker\":2}\n");

  JobResponse list;
  list.id = "l";
  list.op = JobOp::List;
  list.ok = true;
  EXPECT_EQ(serialize_job_response(list),
            "{\"id\":\"l\",\"ok\":true,\"jobs\":[]}\n");
  jobs::JobStatus done = pinned_status();
  done.id = "fedcba9876543210";
  done.state = jobs::JobState::Done;
  list.jobs = {pinned_status(), done};
  list.trace_id = kTrace;
  list.worker = 0;
  EXPECT_EQ(serialize_job_response(list),
            "{\"id\":\"l\",\"ok\":true,\"jobs\":[{\"job\":\"0123456789abcdef\","
            "\"state\":\"running\",\"client\":\"alice\",\"evaluated\":5,"
            "\"total\":8,\"resumed\":false},{\"job\":\"fedcba9876543210\","
            "\"state\":\"done\",\"client\":\"alice\",\"evaluated\":5,"
            "\"total\":8,\"resumed\":false}],"
            "\"trace\":\"9f86d081884c7d65\",\"worker\":0}\n");

  // Errors use the common error shape; "worker" is never written on them.
  JobResponse error;
  error.id = "x";
  error.error = "unavailable";
  error.message = "no worker available";
  error.trace_id = kTrace;
  error.worker = 1;
  EXPECT_EQ(serialize_job_response(error),
            "{\"id\":\"x\",\"ok\":false,\"error\":\"unavailable\","
            "\"message\":\"no worker available\","
            "\"trace\":\"9f86d081884c7d65\"}\n");
}

TEST(ServeWirePins, ControlResponses) {
  EXPECT_EQ(serialize_ping(""), "{\"ok\":true,\"pong\":true}\n");
  EXPECT_EQ(serialize_ping("p"), "{\"id\":\"p\",\"ok\":true,\"pong\":true}\n");
  EXPECT_EQ(serialize_shutdown("s"),
            "{\"id\":\"s\",\"ok\":true,\"shutting_down\":true}\n");
  EXPECT_EQ(serialize_shard_stats("h", "router", {}),
            "{\"id\":\"h\",\"ok\":true,\"mode\":\"router\",\"workers\":[]}\n");
  WorkerStat dead;
  dead.worker = 1;
  dead.pid = -1;
  dead.restarts = 2;
  WorkerStat live;
  live.worker = 0;
  live.pid = 4242;
  live.alive = true;
  live.forwarded = 17;
  EXPECT_EQ(serialize_shard_stats("", "engine", {live, dead}),
            "{\"ok\":true,\"mode\":\"engine\",\"workers\":[{\"worker\":0,"
            "\"pid\":4242,\"alive\":true,\"restarts\":0,\"forwarded\":17},"
            "{\"worker\":1,\"pid\":-1,\"alive\":false,\"restarts\":2,"
            "\"forwarded\":0}]}\n");
  EXPECT_EQ(serialize_worker_hello(3, 4242),
            "{\"hello\":\"perspector-worker/1\",\"worker\":3,\"pid\":4242}\n");
}

TEST(ServeWirePins, StatsAndMetrics) {
  obs::Histogram& histogram = obs::histogram("test.pin.latency");
  histogram.reset();
  histogram.record(1.0);
  histogram.record(3.0);

  // Histogram sketches are process-global, so the pin fixes the prefix
  // and this test's own entry; the rest of the section is shared with
  // the metrics line below.
  const std::string stats = serialize_stats("st");
  const std::string stats_prefix = "{\"id\":\"st\",\"ok\":true,\"histograms\":{";
  ASSERT_EQ(stats.substr(0, stats_prefix.size()), stats_prefix);
  ASSERT_EQ(stats.substr(stats.size() - 3), "}}\n");
  const std::string entry_text = [&] {
    const obs::HistogramStats s = histogram.stats();
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"test.pin.latency\":{\"count\":2,\"min\":%.17g,"
                  "\"max\":%.17g,\"mean\":%.17g,\"p50\":%.17g,\"p90\":%.17g,"
                  "\"p99\":%.17g,\"p999\":%.17g}",
                  s.min, s.max, s.mean(), s.p50, s.p90, s.p99, s.p999);
    return std::string(buf);
  }();
  EXPECT_NE(stats.find(entry_text), std::string::npos) << stats;
  // The histograms object alone ("{...}}\n" tail of the stats line).
  const std::string histograms =
      stats.substr(std::string("{\"id\":\"st\",\"ok\":true,").size());

  const std::map<std::string, std::uint64_t> counters = {
      {"a.count", 3}, {"b\"q", 18446744073709551615ull}};
  obs::DistributionStats stats_a;
  stats_a.count = 2;
  stats_a.min = 0.5;
  stats_a.max = 1.5;
  stats_a.sum = 2.0;
  const std::map<std::string, obs::DistributionStats> distributions = {
      {"serve.request_us", stats_a}, {"z.empty", obs::DistributionStats{}}};
  EXPECT_EQ(serialize_metrics_merged("m", counters, distributions),
            "{\"id\":\"m\",\"ok\":true,\"counters\":{\"a.count\":3,"
            "\"b\\\"q\":18446744073709551615},\"distributions\":{"
            "\"serve.request_us\":{\"count\":2,\"min\":0.5,\"max\":1.5,"
            "\"sum\":2,\"mean\":1},\"z.empty\":{\"count\":0,\"min\":0,"
            "\"max\":0,\"sum\":0,\"mean\":0}}," +
                histograms);
  EXPECT_EQ(serialize_metrics_merged("", {}, {}),
            "{\"ok\":true,\"counters\":{},\"distributions\":{}," + histograms);

  // The local metrics line is the merged writer over the local registry.
  std::map<std::string, std::uint64_t> local_counters;
  for (const auto& snapshot : obs::counters_snapshot()) {
    local_counters[snapshot.name] = snapshot.value;
  }
  std::map<std::string, obs::DistributionStats> local_distributions;
  for (const auto& snapshot : obs::distributions_snapshot()) {
    local_distributions[snapshot.name] = snapshot.stats;
  }
  EXPECT_EQ(serialize_metrics("q"),
            serialize_metrics_merged("q", local_counters, local_distributions));
}

TEST(ServeWirePins, ForwardedScoreRequests) {
  ScoreRequest builtin;
  builtin.id = "7";
  builtin.builtin = "nbench";
  builtin.instructions = 20000;
  builtin.events = "llc";
  EXPECT_EQ(serialize_score_request(builtin),
            "{\"op\":\"score\",\"id\":\"7\",\"events\":\"llc\","
            "\"suite\":\"nbench\",\"instructions\":20000}\n");
  builtin.trace_id = kTrace;
  builtin.content_key = Key128{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(serialize_score_request(builtin),
            "{\"op\":\"score\",\"id\":\"7\",\"trace\":\"9f86d081884c7d65\","
            "\"key\":\"0123456789abcdeffedcba9876543210\",\"events\":\"llc\","
            "\"suite\":\"nbench\",\"instructions\":20000}\n");

  ScoreRequest csv;
  csv.csv_name = "mini";
  csv.csv_text = "workload,c0\na,1\n";
  csv.series_text = "workload,counter,sample,value\na,c0,0,1\n";
  EXPECT_EQ(serialize_score_request(csv),
            "{\"op\":\"score\",\"events\":\"all\",\"name\":\"mini\","
            "\"csv\":\"workload,c0\\na,1\\n\",\"series_csv\":"
            "\"workload,counter,sample,value\\na,c0,0,1\\n\"}\n");
  csv.series_text.clear();
  csv.trace_id = 2;
  EXPECT_EQ(serialize_score_request(csv),
            "{\"op\":\"score\",\"trace\":\"0000000000000002\","
            "\"events\":\"all\",\"name\":\"mini\","
            "\"csv\":\"workload,c0\\na,1\\n\"}\n");

  ScoreRequest direct;
  direct.id = "d";
  direct.data = std::make_shared<const core::CounterMatrix>(
      tiny_matrix("suite", 0.5));
  direct.content_key = Key128{1, 2};
  EXPECT_EQ(serialize_score_request(direct),
            "{\"op\":\"score\",\"id\":\"d\","
            "\"key\":\"00000000000000010000000000000002\",\"events\":\"all\","
            "\"name\":\"suite\",\"csv\":\"workload,c0,c1\\nw0,0.5,1.5\\n"
            "w1,2.5,3.5\\n\"}\n");

  EXPECT_THROW(serialize_score_request(ScoreRequest{}), std::runtime_error);
}

TEST(ServeWirePins, ForwardedMutateAndJobRequests) {
  MutateRequest load;
  load.id = "m0";
  load.op = MutateOp::LoadSuite;
  load.suite = "live";
  load.csv_text = "workload,c0\na,1\n";
  load.series_text = "s";
  load.trace_id = kTrace;
  EXPECT_EQ(serialize_mutate_request(load),
            "{\"op\":\"load_suite\",\"id\":\"m0\","
            "\"trace\":\"9f86d081884c7d65\",\"suite\":\"live\","
            "\"events\":\"all\",\"csv\":\"workload,c0\\na,1\\n\","
            "\"series_csv\":\"s\"}\n");
  MutateRequest drop;
  drop.op = MutateOp::DropWorkload;
  drop.suite = "live";
  drop.workload = "a";
  drop.events = "tlb";
  EXPECT_EQ(serialize_mutate_request(drop),
            "{\"op\":\"drop_workload\",\"suite\":\"live\",\"events\":\"tlb\","
            "\"workload\":\"a\"}\n");

  JobRequest submit;
  submit.id = "s";
  submit.op = JobOp::Submit;
  submit.spec.builtin = "nbench";
  submit.spec.instructions = 2000;
  submit.spec.target_size = 4;
  submit.spec.candidates = 8;
  submit.spec.seed = 7;
  EXPECT_EQ(serialize_job_request(submit),
            "{\"op\":\"generate_submit\",\"id\":\"s\",\"events\":\"all\","
            "\"instructions\":2000,\"size\":4,\"candidates\":8,\"seed\":7,"
            "\"suite\":\"nbench\"}\n");
  submit.id.clear();
  submit.trace_id = kTrace;
  submit.spec.builtin.clear();
  submit.spec.csv_name = "up";
  submit.spec.csv_text = "workload,c\na,1\n";
  submit.spec.series_text = "x";
  submit.spec.client = "bob";
  EXPECT_EQ(serialize_job_request(submit),
            "{\"op\":\"generate_submit\",\"trace\":\"9f86d081884c7d65\","
            "\"events\":\"all\",\"instructions\":2000,\"size\":4,"
            "\"candidates\":8,\"seed\":7,\"client\":\"bob\",\"name\":\"up\","
            "\"csv\":\"workload,c\\na,1\\n\",\"series_csv\":\"x\"}\n");

  JobRequest targeted;
  targeted.id = "st";
  targeted.op = JobOp::Status;
  targeted.job = "0123456789abcdef";
  EXPECT_EQ(serialize_job_request(targeted),
            "{\"op\":\"job_status\",\"id\":\"st\","
            "\"job\":\"0123456789abcdef\"}\n");
  targeted.op = JobOp::Watch;
  targeted.from = 3;
  EXPECT_EQ(serialize_job_request(targeted),
            "{\"op\":\"job_watch\",\"id\":\"st\","
            "\"job\":\"0123456789abcdef\",\"from\":3}\n");
  targeted.op = JobOp::Cancel;
  targeted.trace_id = 1;
  EXPECT_EQ(serialize_job_request(targeted),
            "{\"op\":\"job_cancel\",\"id\":\"st\","
            "\"trace\":\"0000000000000001\",\"job\":\"0123456789abcdef\"}\n");
  JobRequest list;
  list.op = JobOp::List;
  EXPECT_EQ(serialize_job_request(list), "{\"op\":\"job_list\"}\n");
  list.id = "l";
  EXPECT_EQ(serialize_job_request(list), "{\"op\":\"job_list\",\"id\":\"l\"}\n");
}

TEST(ServeWirePins, BadRequestMessages) {
  const std::pair<const char*, const char*> cases[] = {
      {"not json", "json: bad number at byte 0"},
      {"[1,2]", "request must be a JSON object"},
      {R"({"op":5})", "'op' must be a string"},
      {R"({"op":"dance"})", "unknown op 'dance'"},
      // score
      {R"({"suite":"nbench","instructions":-5})",
       "field 'instructions' must be a non-negative integer"},
      {R"({"suite":"nbench","instructions":1.5})",
       "field 'instructions' must be a non-negative integer"},
      {R"({"suite":"nbench","instructions":0})",
       "field 'instructions' must be >= 1"},
      {R"({"suite":"nbench","deadline_ms":"5"})",
       "field 'deadline_ms' must be a non-negative integer"},
      {R"({"suite":"nbench","events":1})", "'events' must be a string"},
      {R"({"suite":"nbench","trace":"xyz"})", "'trace' must be 16 hex digits"},
      {R"({"suite":"nbench","trace":12})", "'trace' must be 16 hex digits"},
      {R"({"suite":"nbench","key":"0123"})", "'key' must be 32 hex digits"},
      {R"({"op":"score"})", "exactly one of 'suite' or 'csv' is required"},
      {R"({"suite":"nbench","csv":"w"})",
       "exactly one of 'suite' or 'csv' is required"},
      {R"({"suite":""})", "'suite' must be a suite name"},
      {R"({"suite":3})", "'suite' must be a suite name"},
      {R"({"csv":3})", "'csv' must be CSV text"},
      {R"({"csv":"workload,c0\na,1\n","name":3})", "'name' must be a string"},
      {R"({"name":"n","csv":"workload,c0\na,nan\n"})",
       "CSV line 2 (byte 12): non-finite value 'nan' is not allowed"},
      {R"({"csv":"workload,c0\na,1\n","series_csv":3})",
       "'series_csv' must be CSV text"},
      // mutate
      {R"({"op":"load_suite","suite":"s","csv":"x","deadline_ms":-1})",
       "field 'deadline_ms' must be a non-negative integer"},
      {R"({"op":"load_suite","suite":"s","csv":"x","events":[]})",
       "'events' must be a string"},
      {R"({"op":"load_suite","suite":"s","csv":"x","trace":"g"})",
       "'trace' must be 16 hex digits"},
      {R"({"op":"load_suite","csv":"x"})",
       "op 'load_suite' requires 'suite' (the resident suite name)"},
      {R"({"op":"add_workload","suite":"","csv":"x"})",
       "op 'add_workload' requires 'suite' (the resident suite name)"},
      {R"({"op":"load_suite","suite":"s","csv":1})", "'csv' must be CSV text"},
      {R"({"op":"load_suite","suite":"s","csv":"x","series_csv":1})",
       "'series_csv' must be CSV text"},
      {R"({"op":"load_suite","suite":"s"})", "op 'load_suite' requires 'csv'"},
      {R"({"op":"add_workload","suite":"s","csv":""})",
       "op 'add_workload' requires 'csv'"},
      {R"({"op":"append_samples","suite":"s"})",
       "op 'append_samples' requires 'series_csv'"},
      {R"({"op":"drop_workload","suite":"s"})",
       "op 'drop_workload' requires 'workload'"},
      {R"({"op":"drop_workload","suite":"s","workload":7})",
       "op 'drop_workload' requires 'workload'"},
      // jobs
      {R"({"op":"job_list","trace":"0123"})", "'trace' must be 16 hex digits"},
      {R"({"op":"generate_submit","suite":"n","instructions":-1})",
       "field 'instructions' must be a non-negative integer"},
      {R"({"op":"generate_submit","suite":"n","size":0.5})",
       "field 'size' must be a non-negative integer"},
      {R"({"op":"generate_submit","suite":"n","candidates":"8"})",
       "field 'candidates' must be a non-negative integer"},
      {R"({"op":"generate_submit","suite":"n","seed":true})",
       "field 'seed' must be a non-negative integer"},
      {R"({"op":"generate_submit","suite":"n","instructions":0})",
       "field 'instructions' must be >= 1"},
      {R"({"op":"generate_submit","suite":"n","events":{}})",
       "'events' must be a string"},
      {R"({"op":"generate_submit","suite":"n","client":1})",
       "'client' must be a string"},
      {R"({"op":"generate_submit"})",
       "exactly one of 'suite' or 'csv' is required"},
      {R"({"op":"generate_submit","suite":""})",
       "'suite' must be a suite name"},
      {R"({"op":"generate_submit","csv":null})", "'csv' must be CSV text"},
      {R"({"op":"generate_submit","csv":"c","name":1})",
       "'name' must be a string"},
      {R"({"op":"generate_submit","csv":"c","series_csv":1})",
       "'series_csv' must be CSV text"},
      {R"({"op":"job_status"})",
       "op 'job_status' requires 'job' (16 hex digits)"},
      {R"({"op":"job_cancel","job":"0123456789ABCDEF"})",
       "op 'job_cancel' requires 'job' (16 hex digits)"},
      {R"({"op":"job_watch","job":"0123456789abcdef","from":-2})",
       "field 'from' must be a non-negative integer"},
  };
  for (const auto& [line, message] : cases) {
    const ParsedRequest parsed = parse_request_line(line);
    EXPECT_FALSE(parsed.ok) << line;
    EXPECT_EQ(parsed.error, "bad_request") << line;
    EXPECT_EQ(parsed.message, message) << line;
  }
  // The id is echoed on every failure after the JSON itself parsed.
  EXPECT_EQ(parse_request_line(R"({"id":"q","op":"dance"})").id, "q");
}

// ---- numeric decoding -------------------------------------------------------
//
// A JSON number is a double; converting one outside the target integer's
// range is undefined behaviour (it aborts a -fsanitize=float-cast-overflow
// build). Every decoder must reject such values instead.

TEST(ServeNumericDecoding, IntegersMustFitTheirTarget) {
  const auto number = [](double value) {
    json::Value v;
    v.type = json::Value::Type::Number;
    v.number = value;
    return v;
  };
  std::uint64_t u64 = 7;
  EXPECT_TRUE(json::get(number(18446744073709549568.0), u64));  // < 2^64
  EXPECT_EQ(u64, 18446744073709549568ull);
  EXPECT_FALSE(json::get(number(18446744073709551616.0), u64));  // 2^64
  EXPECT_FALSE(json::get(number(1e300), u64));
  EXPECT_FALSE(json::get(number(-1.0), u64));
  EXPECT_FALSE(json::get(number(0.5), u64));
  int small = 7;
  EXPECT_TRUE(json::get(number(2147483647.0), small));
  EXPECT_EQ(small, 2147483647);
  EXPECT_FALSE(json::get(number(2147483648.0), small));
  EXPECT_FALSE(json::get(number(1e12), small));
  std::int64_t signed64 = 7;
  EXPECT_FALSE(json::get(number(9223372036854775808.0), signed64));  // 2^63
  EXPECT_EQ(signed64, 7);
}

TEST(ServeNumericDecoding, RequestsRejectOutOfRangeIntegers) {
  for (const char* line :
       {R"({"suite":"nbench","instructions":1e30})",
        R"({"suite":"nbench","instructions":18446744073709551616})",
        R"({"suite":"nbench","deadline_ms":1e300})",
        R"({"op":"load_suite","suite":"s","csv":"x","deadline_ms":1e300})",
        R"({"op":"generate_submit","suite":"n","seed":1e20})",
        R"({"op":"job_watch","job":"0123456789abcdef","from":-1e30})"}) {
    const ParsedRequest parsed = parse_request_line(line);
    EXPECT_FALSE(parsed.ok) << line;
    EXPECT_NE(parsed.message.find("must be a non-negative integer"),
              std::string::npos)
        << line << " -> " << parsed.message;
  }
  const ParsedRequest largest = parse_request_line(
      R"({"suite":"nbench","instructions":18446744073709549568})");
  ASSERT_TRUE(largest.ok) << largest.message;
  EXPECT_EQ(largest.score.instructions, 18446744073709549568ull);
}

TEST(ServeNumericDecoding, ResponseDecodersRejectOutOfRangeIntegers) {
  MutateResponse mutate;
  EXPECT_FALSE(parse_mutate_response(
      R"({"ok":true,"suite":"s","version":-1,"cache":"hit","report":""})",
      mutate));
  const std::string status =
      R"("job":"0123456789abcdef","state":"running","client":"",)"
      R"("resumed":false)";
  JobResponse job;
  EXPECT_FALSE(parse_job_response(
      "{\"ok\":true," + status + ",\"evaluated\":-3,\"total\":8}", job));
  EXPECT_FALSE(parse_job_response(
      "{\"ok\":true," + status + ",\"evaluated\":1,\"total\":1e30}", job));
  EXPECT_FALSE(parse_job_response("{\"ok\":true," + status +
                                      ",\"evaluated\":1,\"total\":8,"
                                      "\"worker\":1e12}",
                                  job));
  EXPECT_FALSE(parse_job_response(
      "{\"ok\":true," + status +
          ",\"evaluated\":1,\"total\":8,\"best\":{\"candidate\":1e30,"
          "\"deviation_pct\":1,\"per_score_deviation_pct\":[],"
          "\"indices\":[],\"subset\":[]}}",
      job));
  EXPECT_FALSE(parse_job_response(
      "{\"ok\":true," + status +
          ",\"evaluated\":1,\"total\":8,\"best\":{\"candidate\":1,"
          "\"deviation_pct\":1,\"per_score_deviation_pct\":[],"
          "\"indices\":[-1],\"subset\":[]}}",
      job));
  EXPECT_FALSE(parse_job_response(
      "{\"ok\":true," + status +
          ",\"evaluated\":1,\"total\":8,\"progress\":[{\"seq\":1e30,"
          "\"evaluated\":1,\"total\":8}],\"next\":2}",
      job));
  ASSERT_TRUE(parse_job_response("{\"ok\":true," + status +
                                     ",\"evaluated\":1,\"total\":8,"
                                     "\"worker\":2147483647}",
                                 job));
  EXPECT_EQ(job.worker, 2147483647);

  std::size_t worker = 0;
  std::int64_t pid = 0;
  EXPECT_FALSE(parse_worker_hello(
      R"({"hello":"perspector-worker/1","worker":1e20,"pid":1})", worker, pid));
  EXPECT_FALSE(parse_worker_hello(
      R"({"hello":"perspector-worker/1","worker":1,"pid":1e19})", worker, pid));
  ASSERT_TRUE(parse_worker_hello(
      R"({"hello":"perspector-worker/1","worker":2,"pid":4242})", worker, pid));
  EXPECT_EQ(worker, 2u);
  EXPECT_EQ(pid, 4242);
}

}  // namespace
}  // namespace perspector::serve
