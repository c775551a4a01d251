// serve::run_client — scripted client for the scoring service.
//
// Builds the NDJSON request lines for one run (optional ping, K pipelined
// copies of a score request, optional metrics / shutdown), writes them all
// before reading anything (exercising the server's pipelining path), then
// half-closes the socket and prints each response as it arrives:
//
//   * score reports go to `out` verbatim (byte-identical to the one-shot
//     CLI), per-response status (cache hit/miss, trace id, errors) to
//     `err`;
//   * metrics responses print one "name value" line per counter plus
//     "name.field value" lines for distribution and histogram stats to
//     `out` (the CI smoke test greps serve.cache_hit and
//     serve.request_us.count from this);
//   * stats responses print "name.p50 value" etc. for every histogram.
//
// Returns 0 when every response was ok, 3 when the server answered at
// least one request with an error object; throws std::runtime_error on
// transport failures (connect/IO), which the CLI maps to exit 2.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "serve/backend.hpp"

namespace perspector::serve {

/// One async-job interaction (DESIGN.md section 15). Unlike the
/// pipelined score path, job mode keeps the connection open and speaks
/// one request/response at a time: submit answers immediately with the
/// job id; `follow` (or a non-empty `watch`) then polls job_watch every
/// `watch_interval_ms` until the job reaches a terminal state, streaming
/// progress records to `err` and printing the final subset to `out` as
///
///   subset: <name> <name> ...
///   deviation_pct: <value>
///
/// — the same two lines `perspector subset --search scored` prints, so
/// scripts can diff the served search against the one-shot reference.
struct ClientJob {
  jobs::JobSpec spec;            // generate_submit payload
  bool submit = false;           // send generate_submit
  bool follow = false;           // after submit: watch to completion
  std::string watch;             // job id to watch (no submit)
  std::string status;            // job id for one job_status
  std::string cancel;            // job id to cancel
  bool list = false;             // job_list
  std::uint64_t watch_interval_ms = 100;  // poll cadence while watching
};

struct ClientRun {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Live-suite mutations (see the mutate ops in protocol.hpp), sent in
  /// order before the score requests with ids "m0", "m1", ...
  std::vector<MutateRequest> mutations;
  /// The score request, sent `repeat` times with ids "0", "1", ...
  std::optional<ScoreRequest> score;
  std::optional<ClientJob> job;  // job mode; takes precedence over score
  std::uint64_t repeat = 1;  // pipelined copies of `score`
  bool ping = false;         // prepend a ping
  bool metrics = false;      // append a metrics request
  bool stats = false;        // append a stats (histogram) request
  bool shard_stats = false;  // append a shard_stats (topology) request
  bool shutdown = false;     // append a shutdown request
};

int run_client(const ClientRun& run, std::ostream& out, std::ostream& err);

}  // namespace perspector::serve
