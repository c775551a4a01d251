// The newline-delimited-JSON wire protocol of the scoring service.
//
// One request object per line, one response object per line, answered in
// request order. Requests:
//
//   {"op":"score","suite":"spec17","instructions":40000,"events":"llc"}
//   {"op":"score","name":"mysuite","csv":"workload,c1\na,1\n",
//    "series_csv":"workload,counter,sample,value\n...","deadline_ms":250}
//   {"op":"ping"}   {"op":"metrics"}   {"op":"stats"}   {"op":"shutdown"}
//   {"op":"shard_stats"}                    (worker topology, router tier)
//
// Live-suite mutation ops (DESIGN.md section 14) make a suite resident
// under a name and then mutate + re-score it incrementally:
//
//   {"op":"load_suite","suite":"live","csv":"...","series_csv":"..."}
//   {"op":"add_workload","suite":"live","csv":"...","series_csv":"..."}
//   {"op":"drop_workload","suite":"live","workload":"a"}
//   {"op":"append_samples","suite":"live","series_csv":"..."}
//
// and answer with the re-scored state of the mutated suite:
//
//   {"id":"1","ok":true,"suite":"live","version":3,"cache":"miss",
//    "trace":"...","report":"..."}
//
// (score responses never carry "suite"/"version", so the two response
// shapes stay distinguishable). A subsequent {"op":"score","suite":
// "live"} scores the resident content — the engine keys its cache by
// the *content digest* of the current version, never by the name, so a
// mutation can never serve a stale report.
//
// Async-job ops (DESIGN.md section 15) run an LHS subset search in the
// background and observe it through a deterministic job id:
//
//   {"op":"generate_submit","suite":"spec17","instructions":40000,
//    "size":8,"candidates":64,"seed":7,"client":"alice"}
//   {"op":"job_status","job":"<16 hex>"}
//   {"op":"job_watch","job":"<16 hex>","from":3}
//   {"op":"job_cancel","job":"<16 hex>"}
//   {"op":"job_list"}
//
// A submit answers immediately ({"ok":true,"job":"...","state":
// "queued","duplicate":false}); status/watch/cancel echo the job's
// current state, evaluated/total counts and best-so-far subset, watch
// additionally carrying the progress records at or after the "from"
// cursor plus the "next" cursor to poll from. job_list returns every
// known job. Responses behind a router carry "worker": the index of the
// worker that owns the job.
//
// A score request may also carry "trace" (16 hex digits) and "key" (32
// hex digits): the serve::Router stamps its trace id and content key on
// forwarded requests so the worker session reuses them instead of
// deriving new ones — responses stay byte-identical at any worker count.
//
// Every request may carry an "id" (string or number) that is echoed
// verbatim in its response. Responses:
//
//   {"id":"1","ok":true,"cache":"miss","trace":"9f86d081884c7d65",
//    "report":"..."}                                          (score)
//   {"id":"1","ok":false,"error":"overloaded","message":"..."}
//   {"ok":true,"pong":true}                                   (ping)
//   {"ok":true,"counters":{"serve.cache_hit":2,...},
//    "distributions":{"serve.request_us":{"count":3,...}},
//    "histograms":{"serve.request.latency":{"p50":...,...}}}  (metrics)
//   {"ok":true,"histograms":{"serve.request.latency":
//    {"count":3,"min":...,"max":...,"mean":...,
//     "p50":...,"p90":...,"p99":...,"p999":...},...}}         (stats)
//   {"ok":true,"shutting_down":true}                          (shutdown)
//
// `trace` is the request's 64-bit trace id (16 hex digits), assigned by
// the server at admission; it also appears in slow-request log lines so
// a response can be joined against the log stream.
//
// Error codes: bad_request (malformed JSON / unknown fields' values),
// overloaded (admission queue full), timeout (queue-wait deadline
// exceeded), internal (scoring failure). The `report` string of an ok
// score response is byte-identical to the one-shot CLI output.
//
// Each message has one writer and one reader below, built on json::Writer
// and json::Reader (json.hpp). They share the response head (id, ok,
// trace, and error + message through one error writer) and the source
// fields ("suite" | "name" + "csv" + "series_csv") of score requests and
// generate_submit. A number that is not an integer inside its field's
// range is rejected ("field '<key>' must be a non-negative integer").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/backend.hpp"

namespace perspector::serve {

enum class Op { Score, Mutate, Job, Ping, Metrics, Stats, ShardStats, Shutdown };

/// Thread-safe strerror replacement (std::strerror shares a static buffer
/// across threads; clang-tidy concurrency-mt-unsafe). Pass `errno`.
inline std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

/// One parsed request line. When `ok` is false the request must not be
/// executed; `error` / `message` describe the parse failure.
struct ParsedRequest {
  bool ok = false;
  Op op = Op::Score;
  ScoreRequest score;    // populated for Op::Score
  MutateRequest mutate;  // populated for Op::Mutate
  JobRequest job;        // populated for Op::Job
  std::string id;        // echoed id (also mirrored into score.id)
  std::string error;     // "bad_request" when !ok
  std::string message;
};

/// Parses one request line. Never throws; malformed input comes back as
/// an !ok ParsedRequest carrying a bad_request error.
ParsedRequest parse_request_line(const std::string& line);

/// Serializes a score response (ok or error) as one JSON line (with
/// trailing newline).
std::string serialize_response(const ScoreResponse& response);

/// An error response line for a request that never reached the engine
/// (parse failures, admission rejections, deadline timeouts).
std::string serialize_error(const std::string& id, const std::string& error,
                            const std::string& message);

std::string serialize_ping(const std::string& id);

/// Snapshot of every registered obs counter, distribution and histogram
/// as one JSON object: serialize_metrics_merged over the local registry
/// (the CLI --metrics-json flag emits the same bytes).
std::string serialize_metrics(const std::string& id);

/// Full histogram snapshots (count/min/max/mean + p50/p90/p99/p999) for
/// the `stats` op. Doubles are serialized with %.17g so they round-trip
/// exactly.
std::string serialize_stats(const std::string& id);

std::string serialize_shutdown(const std::string& id);

/// Serializes a mutate response (ok: suite + version + cache + report;
/// error: same shape as a score error) as one JSON line.
std::string serialize_mutate_response(const MutateResponse& response);

/// Serializes a job response. Ok responses carry the job's status
/// (id/state/client/evaluated/total/resumed, the best-so-far subset when
/// one exists), plus per-op extras: "duplicate" (submit), "progress" +
/// "next" (watch), "jobs" (list), "worker" (routed responses). Errors
/// use the common error shape.
std::string serialize_job_response(const JobResponse& response);

// ---- Router tier ----------------------------------------------------------

/// Serializes a score request as one protocol line, for the client and
/// for forwarding to a worker process. The line carries the trace id and
/// content key when set, and "deadline_ms" when non-zero; an in-memory
/// matrix travels as lossless (%.17g) CSV text. Throws
/// std::runtime_error when the request has nothing to score.
std::string serialize_score_request(const ScoreRequest& request);

/// Parses one worker response line back into a ScoreResponse (the exact
/// inverse of serialize_response). False on malformed input.
bool parse_score_response(const std::string& line, ScoreResponse& out);

/// Serializes a mutate request as one protocol line, for the client and
/// for forwarding to the worker that owns the suite name. The payload CSV
/// travels verbatim; the trace id and a non-zero "deadline_ms" ride along
/// like score forwarding.
std::string serialize_mutate_request(const MutateRequest& request);

/// Inverse of serialize_mutate_response. False on malformed input.
bool parse_mutate_response(const std::string& line, MutateResponse& out);

/// Serializes a job request as one protocol line for forwarding to the
/// worker that owns the job id (consistent-hash affinity). The spec
/// payload travels verbatim, so the worker derives the identical job id.
std::string serialize_job_request(const JobRequest& request);

/// Inverse of serialize_job_response. False on malformed input.
bool parse_job_response(const std::string& line, JobResponse& out);

/// Per-worker row of the shard_stats response.
struct WorkerStat {
  std::size_t worker = 0;
  std::int64_t pid = -1;
  bool alive = false;
  std::uint64_t restarts = 0;
  std::uint64_t forwarded = 0;
};

/// {"ok":true,"mode":...,"workers":[{"worker":0,"pid":...,...},...]}
std::string serialize_shard_stats(const std::string& id,
                                  const std::string& mode,
                                  const std::vector<WorkerStat>& workers);

/// The metrics response built from pre-merged counter/distribution maps
/// (the Router sums its workers' registries into these) plus the *local*
/// histogram registry — histogram percentile sketches do not merge.
std::string serialize_metrics_merged(
    const std::string& id,
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, obs::DistributionStats>& distributions);

/// Worker handshake: the first line a worker writes after fork, so the
/// router knows the channel is live before routing to it.
std::string serialize_worker_hello(std::size_t worker, std::int64_t pid);
bool parse_worker_hello(const std::string& line, std::size_t& worker,
                        std::int64_t& pid);

}  // namespace perspector::serve
