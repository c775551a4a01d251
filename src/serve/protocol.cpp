#include "serve/protocol.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "core/io.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace perspector::serve {

namespace {

constexpr std::string_view kWorkerHello = "perspector-worker/1";

/// Extracts an echoable id: strings verbatim, numbers via their JSON
/// text (integers render without a trailing ".0").
std::string id_of(const json::Value& request) {
  const json::Value* id = request.find("id");
  if (!id) return {};
  if (id->is_string()) return id->string;
  if (id->is_number()) {
    const double value = id->number;
    if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.0f", value);
      return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", value);
    return buf;
  }
  return {};
}

ParsedRequest bad_request(std::string id, std::string message) {
  ParsedRequest parsed;
  parsed.ok = false;
  parsed.id = std::move(id);
  parsed.error = "bad_request";
  parsed.message = std::move(message);
  return parsed;
}

bool parse_line(const std::string& line, json::Value& out) {
  try {
    out = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Exactly 16 lowercase hex digits — the job-id alphabet. Ids double as
/// checkpoint-log file names, so nothing else may pass.
bool valid_job_id(const std::string& id) {
  if (id.size() != 16) return false;
  for (char ch : id) {
    const bool ok = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f');
    if (!ok) return false;
  }
  return true;
}

/// The one of `values` whose wire name is `text`.
template <typename Enum, typename NameOf>
bool enum_of(const std::string& text, std::initializer_list<Enum> values,
             NameOf name_of, Enum& out) {
  for (Enum value : values) {
    if (text == name_of(value)) {
      out = value;
      return true;
    }
  }
  return false;
}

// ---- shared sub-codecs -----------------------------------------------------

void write_trace(json::Writer& w, std::uint64_t trace_id) {
  if (trace_id != 0) w.hex64("trace", trace_id);
}

/// Every request opens with its op, then the id and the router's trace id
/// when they are set.
json::Writer open_request(std::string& out, std::string_view op,
                          const std::string& id, std::uint64_t trace_id) {
  json::Writer w(out);
  w.str("op", op);
  if (!id.empty()) w.str("id", id);
  write_trace(w, trace_id);
  return w;
}

/// Every response opens with the id (when set) and "ok".
json::Writer open_response(std::string& out, const std::string& id,
                           bool ok) {
  json::Writer w(out);
  if (!id.empty()) w.str("id", id);
  w.boolean("ok", ok);
  return w;
}

/// The one error response shape, shared by every op.
std::string error_line(const std::string& id, const std::string& error,
                       const std::string& message, std::uint64_t trace_id) {
  std::string out;
  json::Writer w = open_response(out, id, false);
  w.str("error", error).str("message", message);
  write_trace(w, trace_id);
  w.finish();
  return out;
}

template <typename Response>
std::string error_line(const Response& response) {
  return error_line(response.id, response.error, response.message,
                    response.trace_id);
}

/// Reads one response line: the shared head (ok, id, trace, and error +
/// message on an error response), then `body` for the fields of an ok
/// response. False on malformed input.
template <typename Response, typename Body>
bool parse_response(const std::string& line, Response& out, Body body) {
  json::Value response;
  if (!parse_line(line, response)) return false;
  out = Response{};
  out.id = id_of(response);
  json::Reader in(response);
  in.need("ok", out.ok);
  in.hex64("trace", out.trace_id);
  if (out.ok) {
    body(in);
  } else {
    in.need("error", out.error);
    in.need("message", out.message);
  }
  return in.ok();
}

/// The tail of an ok score or mutate response.
void write_scored(json::Writer& w, bool cache_hit, std::uint64_t trace_id,
                  const std::string& report) {
  w.str("cache", cache_hit ? "hit" : "miss");
  write_trace(w, trace_id);
  w.str("report", report);
}

void read_scored(json::Reader& in, bool& cache_hit, std::string& report) {
  std::string cache;
  in.need("cache", cache);
  in.need("report", report);
  cache_hit = cache == "hit";
}

/// What a score request or job submission scores: a built-in suite
/// ("suite"), or uploaded CSV ("name", "csv", optional "series_csv").
void write_source(json::Writer& w, std::string_view builtin,
                  std::string_view name, std::string_view csv,
                  std::string_view series) {
  if (!builtin.empty()) {
    w.str("suite", builtin);
    return;
  }
  w.str("name", name).str("csv", csv);
  if (!series.empty()) w.str("series_csv", series);
}

/// ScoreRequest and jobs::JobSpec name their source fields alike. The CSV
/// payload is kept raw: the content key digests these exact bytes, and
/// the router forwards them verbatim to its workers.
template <typename Source>
void read_source(json::Reader& in, Source& source,
                 const char* default_name) {
  const json::Value* suite = in.find("suite");
  if ((suite != nullptr) == (in.find("csv") != nullptr)) {
    in.fail("exactly one of 'suite' or 'csv' is required");
  } else if (suite) {
    if (!in.nonempty("suite", source.builtin)) {
      in.fail("'suite' must be a suite name");
    }
  } else {
    source.csv_name = default_name;
    in.get("csv", source.csv_text, "CSV text");
    in.get("name", source.csv_name);
    in.get("series_csv", source.series_text, "CSV text");
  }
}

void write_best(json::Writer& w, const jobs::BestCandidate& best) {
  if (!best.valid) return;
  w.object("best")
      .u64("candidate", best.candidate)
      .f64("deviation_pct", best.deviation_pct)
      .list("per_score_deviation_pct", best.per_score_deviation_pct)
      .list("indices", best.indices)
      .list("subset", best.names)
      .end_object();
}

/// Reads the optional "best" member of `parent`.
bool read_best(json::Reader& parent, jobs::BestCandidate& best) {
  const json::Value* value = parent.find("best");
  if (!value || !parent.ok()) return parent.ok();
  json::Reader in(*value);
  in.need("candidate", best.candidate);
  in.need("deviation_pct", best.deviation_pct);
  in.list("per_score_deviation_pct", best.per_score_deviation_pct);
  in.list("indices", best.indices);
  in.list("subset", best.names);
  best.valid = true;
  return in.ok() || parent.fail(in.problem());
}

void write_status(json::Writer& w, const jobs::JobStatus& status) {
  w.str("job", status.id)
      .str("state", jobs::to_string(status.state))
      .str("client", status.client)
      .u64("evaluated", status.evaluated)
      .u64("total", status.total)
      .boolean("resumed", status.resumed);
  write_best(w, status.best);
  if (!status.error.empty()) w.str("detail", status.error);
}

bool read_status(json::Reader& in, jobs::JobStatus& status) {
  std::string state;
  in.need("job", status.id);
  in.need("state", state);
  in.need("evaluated", status.evaluated);
  in.need("total", status.total);
  in.get("client", status.client);
  in.get("resumed", status.resumed);
  read_best(in, status.best);
  in.get("detail", status.error);
  if (in.ok() && !enum_of(state,
                          {jobs::JobState::Queued, jobs::JobState::Running,
                           jobs::JobState::Done, jobs::JobState::Cancelled,
                           jobs::JobState::Failed},
                          jobs::to_string, status.state)) {
    in.fail("'state' must be a job state");
  }
  return in.ok();
}

void write_progress(json::Writer& w,
                    const std::vector<jobs::JobProgress>& progress) {
  w.array("progress");
  for (const jobs::JobProgress& record : progress) {
    w.object()
        .u64("seq", record.seq)
        .u64("evaluated", record.evaluated)
        .u64("total", record.total);
    write_best(w, record.best);
    w.end_object();
  }
  w.end_array();
}

bool read_progress(json::Reader& in,
                   std::vector<jobs::JobProgress>& progress) {
  const std::vector<json::Value>* records = in.array("progress", true);
  if (!records) return false;
  for (const json::Value& element : *records) {
    json::Reader record(element);
    jobs::JobProgress& out = progress.emplace_back();
    record.need("seq", out.seq);
    record.need("evaluated", out.evaluated);
    record.need("total", out.total);
    read_best(record, out.best);
    if (!record.ok()) return in.fail(record.problem());
  }
  return true;
}

void write_histograms(json::Writer& w) {
  w.object("histograms");
  for (const auto& snapshot : obs::histograms_snapshot()) {
    const obs::HistogramStats& stats = snapshot.stats;
    w.object(snapshot.name)
        .u64("count", stats.count)
        .f64("min", stats.min)
        .f64("max", stats.max)
        .f64("mean", stats.mean())
        .f64("p50", stats.p50)
        .f64("p90", stats.p90)
        .f64("p99", stats.p99)
        .f64("p999", stats.p999)
        .end_object();
  }
  w.end_object();
}

// ---- request readers -------------------------------------------------------

void read_score(json::Reader& in, ScoreRequest& score) {
  in.get("instructions", score.instructions);
  in.get("deadline_ms", score.deadline_ms);
  if (score.instructions == 0) in.fail("field 'instructions' must be >= 1");
  in.get("events", score.events);
  // Router-forwarded requests carry the router's trace id and content
  // key; the worker session reuses both instead of deriving its own.
  in.hex64("trace", score.trace_id);
  if (const json::Value* key = in.find("key")) {
    const std::string_view text = key->string;
    if (!key->is_string() || text.size() != 32 ||
        !json::parse_hex64(text.substr(0, 16), score.content_key.hi) ||
        !json::parse_hex64(text.substr(16), score.content_key.lo)) {
      in.fail("'key' must be 32 hex digits");
    }
  }
  read_source(in, score, "inline");
  if (!in.ok() || !score.builtin.empty()) return;
  try {
    score.data = std::make_shared<const core::CounterMatrix>(
        in.find("series_csv")
            ? core::read_with_series_csv_text(score.csv_name, score.csv_text,
                                              score.series_text)
            : core::read_aggregates_csv_text(score.csv_name,
                                             score.csv_text));
  } catch (const std::exception& e) {
    in.fail(e.what());
  }
}

void read_mutate(json::Reader& in, const std::string& op,
                 MutateRequest& mutate) {
  in.get("deadline_ms", mutate.deadline_ms);
  in.get("events", mutate.events);
  in.hex64("trace", mutate.trace_id);
  if (!in.nonempty("suite", mutate.suite)) {
    in.fail("op '" + op + "' requires 'suite' (the resident suite name)");
  }
  // Payload CSV is retained raw and parsed engine-side, where the
  // resident base suite is available for column rearrangement and
  // delta validation.
  in.get("csv", mutate.csv_text, "CSV text");
  in.get("series_csv", mutate.series_text, "CSV text");
  const bool needs_csv = mutate.op == MutateOp::LoadSuite ||
                         mutate.op == MutateOp::AddWorkload;
  if (needs_csv && mutate.csv_text.empty()) {
    in.fail("op '" + op + "' requires 'csv'");
  }
  if (mutate.op == MutateOp::AppendSamples && mutate.series_text.empty()) {
    in.fail("op '" + op + "' requires 'series_csv'");
  }
  if (mutate.op == MutateOp::DropWorkload &&
      !in.nonempty("workload", mutate.workload)) {
    in.fail("op '" + op + "' requires 'workload'");
  }
}

void read_job(json::Reader& in, const std::string& op, JobRequest& job) {
  in.hex64("trace", job.trace_id);
  if (job.op == JobOp::Submit) {
    jobs::JobSpec& spec = job.spec;
    in.get("instructions", spec.instructions);
    in.get("size", spec.target_size);
    in.get("candidates", spec.candidates);
    in.get("seed", spec.seed);
    if (spec.instructions == 0) in.fail("field 'instructions' must be >= 1");
    in.get("events", spec.events);
    in.get("client", spec.client);
    read_source(in, spec, "uploaded");
  } else if (job.op != JobOp::List) {
    if (!in.nonempty("job", job.job) || !valid_job_id(job.job)) {
      in.fail("op '" + op + "' requires 'job' (16 hex digits)");
    }
    if (job.op == JobOp::Watch) in.get("from", job.from);
  }
}

}  // namespace

ParsedRequest parse_request_line(const std::string& line) {
  json::Value request;
  try {
    request = json::parse(line);
  } catch (const std::exception& e) {
    return bad_request("", e.what());
  }
  if (!request.is_object()) {
    return bad_request("", "request must be a JSON object");
  }

  ParsedRequest parsed;
  parsed.id = id_of(request);
  json::Reader in(request);
  std::string op = "score";
  if (!in.get("op", op)) return bad_request(parsed.id, in.problem());
  static constexpr std::pair<std::string_view, Op> kControlOps[] = {
      {"ping", Op::Ping},
      {"metrics", Op::Metrics},
      {"stats", Op::Stats},
      {"shard_stats", Op::ShardStats},
      {"shutdown", Op::Shutdown}};
  for (const auto& [name, control] : kControlOps) {
    if (op == name) {
      parsed.ok = true;
      parsed.op = control;
      return parsed;
    }
  }
  if (enum_of(op,
              {MutateOp::LoadSuite, MutateOp::AddWorkload,
               MutateOp::DropWorkload, MutateOp::AppendSamples},
              mutate_op_name, parsed.mutate.op)) {
    parsed.op = Op::Mutate;
    parsed.mutate.id = parsed.id;
    read_mutate(in, op, parsed.mutate);
  } else if (enum_of(op,
                     {JobOp::Submit, JobOp::Status, JobOp::Watch,
                      JobOp::Cancel, JobOp::List},
                     job_op_name, parsed.job.op)) {
    parsed.op = Op::Job;
    parsed.job.id = parsed.id;
    read_job(in, op, parsed.job);
  } else if (op == "score") {
    parsed.op = Op::Score;
    parsed.score.id = parsed.id;
    read_score(in, parsed.score);
  } else {
    in.fail("unknown op '" + op + "'");
  }
  if (!in.ok()) return bad_request(parsed.id, in.problem());
  parsed.ok = true;
  return parsed;
}

std::string serialize_response(const ScoreResponse& response) {
  if (!response.ok) return error_line(response);
  std::string out;
  json::Writer w = open_response(out, response.id, true);
  write_scored(w, response.cache_hit, response.trace_id, response.report);
  w.finish();
  return out;
}

std::string serialize_error(const std::string& id, const std::string& error,
                            const std::string& message) {
  return error_line(id, error, message, 0);
}

std::string serialize_ping(const std::string& id) {
  std::string out;
  open_response(out, id, true).boolean("pong", true).finish();
  return out;
}

std::string serialize_metrics(const std::string& id) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& snapshot : obs::counters_snapshot()) {
    counters.emplace(snapshot.name, snapshot.value);
  }
  std::map<std::string, obs::DistributionStats> distributions;
  for (const auto& snapshot : obs::distributions_snapshot()) {
    distributions.emplace(snapshot.name, snapshot.stats);
  }
  return serialize_metrics_merged(id, counters, distributions);
}

std::string serialize_stats(const std::string& id) {
  std::string out;
  json::Writer w = open_response(out, id, true);
  write_histograms(w);
  w.finish();
  return out;
}

std::string serialize_shutdown(const std::string& id) {
  std::string out;
  open_response(out, id, true).boolean("shutting_down", true).finish();
  return out;
}

std::string serialize_mutate_response(const MutateResponse& response) {
  if (!response.ok) return error_line(response);
  std::string out;
  json::Writer w = open_response(out, response.id, true);
  w.str("suite", response.suite).u64("version", response.version);
  write_scored(w, response.cache_hit, response.trace_id, response.report);
  w.finish();
  return out;
}

std::string serialize_mutate_request(const MutateRequest& request) {
  std::string out;
  json::Writer w = open_request(out, mutate_op_name(request.op), request.id,
                                request.trace_id);
  w.str("suite", request.suite).str("events", request.events);
  if (!request.csv_text.empty()) w.str("csv", request.csv_text);
  if (!request.series_text.empty()) w.str("series_csv", request.series_text);
  if (!request.workload.empty()) w.str("workload", request.workload);
  if (request.deadline_ms != 0) w.u64("deadline_ms", request.deadline_ms);
  w.finish();
  return out;
}

bool parse_mutate_response(const std::string& line, MutateResponse& out) {
  return parse_response(line, out, [&out](json::Reader& in) {
    in.need("suite", out.suite);
    in.need("version", out.version);
    read_scored(in, out.cache_hit, out.report);
  });
}

std::string serialize_job_response(const JobResponse& response) {
  if (!response.ok) return error_line(response);
  std::string out;
  json::Writer w = open_response(out, response.id, true);
  if (response.op == JobOp::List) {
    w.array("jobs");
    for (const jobs::JobStatus& status : response.jobs) {
      w.object();
      write_status(w, status);
      w.end_object();
    }
    w.end_array();
  } else {
    write_status(w, response.status);
    if (response.op == JobOp::Submit) {
      w.boolean("duplicate", response.duplicate);
    }
    if (response.op == JobOp::Watch) {
      write_progress(w, response.progress);
      w.u64("next", response.next);
    }
  }
  write_trace(w, response.trace_id);
  if (response.worker >= 0) {
    w.u64("worker", static_cast<std::uint64_t>(response.worker));
  }
  w.finish();
  return out;
}

std::string serialize_job_request(const JobRequest& request) {
  std::string out;
  json::Writer w = open_request(out, job_op_name(request.op), request.id,
                                request.trace_id);
  if (request.op == JobOp::Submit) {
    const jobs::JobSpec& spec = request.spec;
    // Every job-id-relevant field travels explicitly (no wire defaults):
    // the worker must derive the identical id from the forwarded line.
    w.str("events", spec.events)
        .u64("instructions", spec.instructions)
        .u64("size", spec.target_size)
        .u64("candidates", spec.candidates)
        .u64("seed", spec.seed);
    if (!spec.client.empty()) w.str("client", spec.client);
    write_source(w, spec.builtin, spec.csv_name, spec.csv_text,
                 spec.series_text);
  } else if (request.op != JobOp::List) {
    w.str("job", request.job);
    if (request.op == JobOp::Watch) w.u64("from", request.from);
  }
  w.finish();
  return out;
}

bool parse_job_response(const std::string& line, JobResponse& out) {
  return parse_response(line, out, [&out](json::Reader& in) {
    in.get("worker", out.worker);
    if (const std::vector<json::Value>* list = in.array("jobs", false)) {
      out.op = JobOp::List;
      for (const json::Value& element : *list) {
        json::Reader status(element);
        if (!read_status(status, out.jobs.emplace_back())) {
          in.fail(status.problem());
          return;
        }
      }
      return;
    }
    read_status(in, out.status);
    if (in.find("duplicate")) {
      out.op = JobOp::Submit;
      in.get("duplicate", out.duplicate);
    }
    if (in.find("progress")) {
      out.op = JobOp::Watch;
      read_progress(in, out.progress);
      in.need("next", out.next);
    }
  });
}

std::string serialize_score_request(const ScoreRequest& request) {
  std::string out;
  json::Writer w = open_request(out, "score", request.id, request.trace_id);
  if (!(request.content_key == Key128{})) {
    char key[40];
    std::snprintf(key, sizeof key, "%016" PRIx64 "%016" PRIx64,
                  request.content_key.hi, request.content_key.lo);
    w.str("key", key);
  }
  w.str("events", request.events);
  if (!request.builtin.empty() || !request.csv_text.empty()) {
    write_source(w, request.builtin, request.csv_name, request.csv_text,
                 request.series_text);
    if (!request.builtin.empty()) {
      w.u64("instructions", request.instructions);
    }
  } else if (request.data) {
    // Direct-API matrix: forwarded as lossless CSV text, so the worker
    // parses back the exact doubles.
    const core::CounterMatrix& data = *request.data;
    write_source(w, "", data.suite_name(),
                 core::write_aggregates_csv_text(data),
                 data.has_series() ? core::write_series_csv_text(data) : "");
  } else {
    throw std::runtime_error("request has nothing to score");
  }
  if (request.deadline_ms != 0) w.u64("deadline_ms", request.deadline_ms);
  w.finish();
  return out;
}

bool parse_score_response(const std::string& line, ScoreResponse& out) {
  return parse_response(line, out, [&out](json::Reader& in) {
    read_scored(in, out.cache_hit, out.report);
  });
}

std::string serialize_shard_stats(const std::string& id,
                                  const std::string& mode,
                                  const std::vector<WorkerStat>& workers) {
  std::string out;
  json::Writer w = open_response(out, id, true);
  w.str("mode", mode).array("workers");
  for (const WorkerStat& stat : workers) {
    w.object()
        .u64("worker", stat.worker)
        .i64("pid", stat.pid)
        .boolean("alive", stat.alive)
        .u64("restarts", stat.restarts)
        .u64("forwarded", stat.forwarded)
        .end_object();
  }
  w.end_array().finish();
  return out;
}

std::string serialize_metrics_merged(
    const std::string& id,
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, obs::DistributionStats>& distributions) {
  std::string out;
  json::Writer w = open_response(out, id, true);
  w.object("counters");
  for (const auto& [name, value] : counters) w.u64(name, value);
  w.end_object().object("distributions");
  for (const auto& [name, stats] : distributions) {
    w.object(name)
        .u64("count", stats.count)
        .f64("min", stats.min)
        .f64("max", stats.max)
        .f64("sum", stats.sum)
        .f64("mean", stats.mean())
        .end_object();
  }
  w.end_object();
  write_histograms(w);
  w.finish();
  return out;
}

std::string serialize_worker_hello(std::size_t worker, std::int64_t pid) {
  std::string out;
  json::Writer(out)
      .str("hello", kWorkerHello)
      .u64("worker", worker)
      .i64("pid", pid)
      .finish();
  return out;
}

bool parse_worker_hello(const std::string& line, std::size_t& worker,
                        std::int64_t& pid) {
  json::Value hello;
  if (!parse_line(line, hello)) return false;
  json::Reader in(hello);
  std::string tag;
  in.need("hello", tag);
  in.need("worker", worker);
  in.need("pid", pid);
  return in.ok() && tag == kWorkerHello;
}

}  // namespace perspector::serve
