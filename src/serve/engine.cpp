#include "serve/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

#include <cinttypes>
#include <cstdio>

#include "core/event_group.hpp"
#include "core/io.hpp"
#include "core/perspector.hpp"
#include "core/report.hpp"
#include "core/scoring_workspace.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "par/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "suites/suite_factory.hpp"

namespace perspector::serve {

namespace {

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::counter("serve.requests");
  return c;
}
obs::Counter& hit_counter() {
  static obs::Counter& c = obs::counter("serve.cache_hit");
  return c;
}
obs::Counter& miss_counter() {
  static obs::Counter& c = obs::counter("serve.cache_miss");
  return c;
}
obs::Counter& durable_hit_counter() {
  static obs::Counter& c = obs::counter("serve.durable_hit");
  return c;
}
obs::Counter& coalesced_counter() {
  static obs::Counter& c = obs::counter("serve.coalesced");
  return c;
}
obs::Counter& batched_counter() {
  static obs::Counter& c = obs::counter("serve.batched");
  return c;
}
obs::Counter& errors_counter() {
  static obs::Counter& c = obs::counter("serve.errors");
  return c;
}
obs::Counter& dup_compute_counter() {
  static obs::Counter& c = obs::counter("serve.dup_computes");
  return c;
}
obs::Counter& mutations_counter() {
  static obs::Counter& c = obs::counter("serve.mutations");
  return c;
}
obs::Distribution& request_latency() {
  static obs::Distribution& d = obs::distribution("serve.request_us");
  return d;
}
obs::Histogram& request_latency_histogram() {
  static obs::Histogram& h = obs::histogram("serve.request.latency");
  return h;
}
obs::Histogram& simulate_latency_histogram() {
  static obs::Histogram& h = obs::histogram("serve.simulate.latency");
  return h;
}
obs::Histogram& job_submit_latency_histogram() {
  static obs::Histogram& h = obs::histogram("jobs.submit.latency");
  return h;
}
obs::Histogram& job_watch_latency_histogram() {
  static obs::Histogram& h = obs::histogram("jobs.watch.latency");
  return h;
}

/// 16-hex-digit rendering of a trace id for log lines.
struct TraceHex {
  char text[17];
  explicit TraceHex(std::uint64_t trace_id) {
    std::snprintf(text, sizeof text, "%016" PRIx64, trace_id);
  }
};

ScoreResponse error_response(const std::string& id, std::string error,
                             std::string message) {
  ScoreResponse response;
  response.id = id;
  response.ok = false;
  response.error = std::move(error);
  response.message = std::move(message);
  return response;
}

}  // namespace

bool is_builtin_suite(const std::string& name) {
  return suites::is_builtin_suite(name);
}

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(options.cache_bytes, options.cache_dir, options.store_bytes,
             options.store_faults),
      jobs_(std::make_unique<jobs::Scheduler>(options.jobs)) {
  // Spin the persistent parallel backend up front so the first request
  // does not pay pool construction.
  if (par::thread_count() > 1) par::global_pool();
}

Engine::~Engine() {
  cache_.flush();
}

Key128 Engine::content_key(const ScoreRequest& request) {
  if (!(request.content_key == Key128{})) return request.content_key;
  return compute_content_key(request, &digests_);
}

JobResponse Engine::job(const JobRequest& request) {
  JobResponse response;
  response.id = request.id;
  response.op = request.op;
  response.trace_id = request.trace_id;
  switch (request.op) {
    case JobOp::Submit: {
      obs::LatencyTimer timer(job_submit_latency_histogram());
      const jobs::SubmitOutcome outcome = jobs_->submit(request.spec);
      if (!outcome.ok) {
        response.error = outcome.error;
        response.message = outcome.message;
        return response;
      }
      response.ok = true;
      response.duplicate = outcome.duplicate;
      if (const auto status = jobs_->status(outcome.id)) {
        response.status = *status;
      } else {
        response.status.id = outcome.id;
        response.status.total = request.spec.candidates;
      }
      return response;
    }
    case JobOp::Status:
    case JobOp::Cancel: {
      const auto status = request.op == JobOp::Status
                              ? jobs_->status(request.job)
                              : jobs_->cancel(request.job);
      if (!status) {
        response.error = "bad_request";
        response.message = "unknown job '" + request.job + "'";
        return response;
      }
      response.ok = true;
      response.status = *status;
      return response;
    }
    case JobOp::Watch: {
      obs::LatencyTimer timer(job_watch_latency_histogram());
      const auto watched = jobs_->watch(request.job, request.from);
      if (!watched) {
        response.error = "bad_request";
        response.message = "unknown job '" + request.job + "'";
        return response;
      }
      response.ok = true;
      response.status = watched->status;
      response.progress = watched->progress;
      response.next = watched->next;
      return response;
    }
    case JobOp::List:
      response.ok = true;
      response.jobs = jobs_->list();
      return response;
  }
  response.error = "internal";
  response.message = "unhandled job op";
  return response;
}

bool Engine::jobs_runnable() { return jobs_->runnable(); }

void Engine::jobs_step() { jobs_->step(); }

std::string Engine::metrics_line(const std::string& id) {
  return serialize_metrics(id);
}

std::string Engine::stats_line(const std::string& id) {
  return serialize_stats(id);
}

std::string Engine::shard_stats_line(const std::string& id) {
  WorkerStat self;
  self.worker = 0;
  self.pid = static_cast<std::int64_t>(::getpid());
  self.alive = true;
  self.restarts = 0;
  self.forwarded = requests_counter().value();
  return serialize_shard_stats(id, "engine", {self});
}

std::shared_ptr<const core::CounterMatrix> Engine::resolve_data(
    const ScoreRequest& request) {
  if (request.builtin.empty()) {
    if (!request.data) {
      throw std::runtime_error("request carries neither suite data nor a "
                               "built-in suite name");
    }
    return request.data;
  }
  if (!is_builtin_suite(request.builtin)) {
    throw std::runtime_error("unknown built-in suite '" + request.builtin +
                             "' (try: perspector suites)");
  }
  const Key128 key = ContentHasher{}
                         .str("builtin-suite")
                         .str(request.builtin)
                         .u64(request.instructions)
                         .digest();
  {
    std::lock_guard<std::mutex> lock(suite_mutex_);
    for (auto it = suites_.begin(); it != suites_.end(); ++it) {
      if (it->first == key) {
        suites_.splice(suites_.begin(), suites_, it);
        return suites_.front().second;
      }
    }
  }
  // Simulate outside the lock; simulation is deterministic, so a racing
  // duplicate produces the same matrix and either copy may win.
  obs::Span span("serve.simulate");
  obs::LatencyTimer timer(simulate_latency_histogram());
  auto data = std::make_shared<const core::CounterMatrix>(
      simulate_builtin(request.builtin, request.instructions));
  std::lock_guard<std::mutex> lock(suite_mutex_);
  for (const auto& [k, existing] : suites_) {
    if (k == key) return existing;
  }
  suites_.emplace_front(key, data);
  while (suites_.size() > options_.suite_slots) suites_.pop_back();
  return data;
}

std::shared_ptr<core::ScoringWorkspace> Engine::workspace_for(
    const Key128& key) {
  std::lock_guard<std::mutex> lock(workspace_mutex_);
  for (auto it = workspaces_.begin(); it != workspaces_.end(); ++it) {
    if (it->first == key) {
      workspaces_.splice(workspaces_.begin(), workspaces_, it);
      return workspaces_.front().second;
    }
  }
  workspaces_.emplace_front(key, std::make_shared<core::ScoringWorkspace>());
  while (workspaces_.size() > options_.workspace_slots) workspaces_.pop_back();
  return workspaces_.front().second;
}

ScoreResponse Engine::compute(const ScoreRequest& request,
                              const core::CounterMatrix& data,
                              const Key128& result_key) {
  // The workspace key folds the result key once more so the two key
  // spaces stay disjoint — no matrix re-hash on the compute path.
  const auto workspace = workspace_for(ContentHasher{}
                                           .u64(result_key.hi)
                                           .u64(result_key.lo)
                                           .str("workspace")
                                           .digest());
  return compute_with(request, data, *workspace);
}

ScoreResponse Engine::compute_with(const ScoreRequest& request,
                                   const core::CounterMatrix& data,
                                   core::ScoringWorkspace& workspace) {
  ScoreResponse response;
  response.id = request.id;
  try {
    // Exactly the one-shot path: default metric options, the requested
    // event filter, core::suite_report on the *unfiltered* data — the
    // same call sequence cmd_score/cmd_demo make.
    core::PerspectorOptions scoring;
    scoring.events =
        core::EventGroup::by_name<std::runtime_error>(request.events);
    obs::Span span("serve.score");
    const auto scores =
        core::Perspector(scoring).score_suites({data}, workspace).front();
    response.report = core::suite_report(data, scores);
    response.ok = true;
  } catch (const std::exception& e) {
    return error_response(request.id, "internal", e.what());
  }
  return response;
}

ScoreResponse Engine::score(const ScoreRequest& request) {
  obs::Span span("serve.request");
  // One sample feeds both the histogram (percentiles via the stats op)
  // and the legacy count/min/max/sum distribution.
  obs::LatencyTimer timer(request_latency_histogram(), &request_latency());
  ScoreResponse response = score_inner(request);
  response.trace_id = request.trace_id;
  if (obs::Logger::instance().enabled(obs::LogLevel::kDebug)) {
    const TraceHex trace(response.trace_id);
    obs::log_debug(
        "serve.request",
        {obs::field("trace", trace.text), obs::field("id", response.id),
         obs::field_bool("ok", response.ok),
         obs::field_bool("cache_hit", response.cache_hit),
         obs::field_f64("latency_us", timer.elapsed_us())});
  }
  return response;
}

ScoreResponse Engine::score_inner(const ScoreRequest& request) {
  requests_counter().increment();

  // Cheap validation before any hashing or simulation; error precedence
  // matches the historical resolve-then-filter order. A suite name that
  // is neither a built-in nor a resident live suite is rejected with the
  // historical message.
  std::shared_ptr<ResidentSuite> resident;
  try {
    if (request.builtin.empty() && !request.data) {
      throw std::runtime_error("request carries neither suite data nor a "
                               "built-in suite name");
    }
    if (!request.builtin.empty() && !is_builtin_suite(request.builtin)) {
      resident = find_resident(request.builtin);
      if (!resident) {
        throw std::runtime_error("unknown built-in suite '" +
                                 request.builtin +
                                 "' (try: perspector suites)");
      }
    }
    // Validates the name; the group itself is built when scoring.
    core::EventGroup::by_name<std::runtime_error>(request.events);
  } catch (const std::exception& e) {
    errors_counter().increment();
    return error_response(request.id, "bad_request", e.what());
  }

  // Resident scores hold the suite's reader lock across the whole
  // request (mutations take it exclusively) and key the cache by the
  // *live content digest* — the wire content key digests the name,
  // which never changes across mutations, so honoring it could serve a
  // stale report.
  std::shared_lock<std::shared_mutex> resident_lock;
  std::shared_ptr<const core::CounterMatrix> resident_data;
  Key128 key;
  if (resident) {
    resident_lock = std::shared_lock<std::shared_mutex>(resident->rw);
    resident_data = resident->data;
    key = result_cache_key(digests_.matrix_digest(resident_data),
                           request.events);
  } else {
    key = result_cache_key(content_key(request), request.events);
  }

  std::shared_future<ScoreResponse> shared;
  std::promise<ScoreResponse> promise;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (auto cached = cache_.get_memory(key)) {
      hit_counter().increment();
      ScoreResponse response;
      response.id = request.id;
      response.ok = true;
      response.cache_hit = true;
      response.report = std::move(*cached);
      return response;
    }
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      if (par::ThreadPool::on_worker_thread()) {
        // A pool worker must never block on another request's future —
        // with every worker parked, the owner's own parallel pass could
        // never start (see DESIGN.md section 10). Recompute instead: the
        // result is bit-identical by the determinism contract, so
        // duplicated work is the only cost.
        dup_compute_counter().increment();
      } else {
        shared = it->second;
      }
    } else {
      owner = true;
      shared = promise.get_future().share();
      inflight_.emplace(key, shared);
    }
  }

  if (shared.valid() && !owner) {
    coalesced_counter().increment();
    hit_counter().increment();
    ScoreResponse response = shared.get();
    response.id = request.id;
    response.cache_hit = true;
    return response;
  }

  if (owner) {
    // Disk tier outside the in-flight lock: checksum verification and a
    // pread are far too slow to serialize the hot path on.
    if (auto durable = cache_.get_durable(key)) {
      durable_hit_counter().increment();
      hit_counter().increment();
      ScoreResponse response;
      response.id = request.id;
      response.ok = true;
      response.cache_hit = true;
      response.report = std::move(*durable);
      promise.set_value(response);
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
      return response;
    }
  }

  ScoreResponse response;
  try {
    if (resident) {
      response = compute_with(request, *resident_data, *resident->workspace);
    } else {
      const auto data = resolve_data(request);
      response = compute(request, *data, key);
    }
  } catch (const std::exception& e) {
    response = error_response(request.id, "bad_request", e.what());
  }
  if (response.ok) {
    cache_.put(key, response.report);
    miss_counter().increment();
  } else {
    errors_counter().increment();
  }
  if (owner) {
    promise.set_value(response);
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  return response;
}

std::vector<ScoreResponse> Engine::score_batch(
    const std::vector<ScoreRequest>& requests) {
  if (requests.empty()) return {};
  obs::Span span("serve.batch");
  if (requests.size() > 1) batched_counter().add(requests.size());

  // Dedup identical requests by cheap signature before the pass, so a
  // burst of repeats costs one computation and the copies are served as
  // coalesced hits — without any chunk ever blocking on another. A
  // request that carries its content key dedups by it (two identical
  // CSV uploads parse into distinct matrices but share a key); otherwise
  // the historical composite signature applies.
  struct Signature {
    std::string text;
    const void* data;
    bool operator==(const Signature&) const = default;
  };
  std::vector<std::size_t> primary(requests.size());
  std::vector<std::pair<Signature, std::size_t>> seen;
  std::vector<std::size_t> unique;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& r = requests[i];
    Signature sig;
    if (!(r.content_key == Key128{})) {
      char key_text[48];
      std::snprintf(key_text, sizeof key_text, "%016" PRIx64 "%016" PRIx64,
                    r.content_key.hi, r.content_key.lo);
      sig = Signature{std::string(key_text) + '\x1f' + r.events, nullptr};
    } else {
      sig = Signature{r.builtin + '\x1f' + std::to_string(r.instructions) +
                          '\x1f' + r.events,
                      static_cast<const void*>(r.data.get())};
    }
    const auto it =
        std::find_if(seen.begin(), seen.end(),
                     [&](const auto& entry) { return entry.first == sig; });
    if (it == seen.end()) {
      seen.emplace_back(std::move(sig), i);
      primary[i] = i;
      unique.push_back(i);
    } else {
      primary[i] = it->second;
    }
  }

  std::vector<ScoreResponse> computed(requests.size());
  par::parallel_for(unique.size(), [&](std::size_t u) {
    const std::size_t i = unique[u];
    computed[i] = score(requests[i]);
  });

  std::vector<ScoreResponse> out(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (primary[i] == i) continue;
    // A copy of the primary's result, accounted like a coalesced hit
    // (or a shared error when the primary failed).
    requests_counter().increment();
    out[i] = computed[primary[i]];
    out[i].id = requests[i].id;
    out[i].trace_id = requests[i].trace_id;
    if (out[i].ok) {
      coalesced_counter().increment();
      hit_counter().increment();
      out[i].cache_hit = true;
    } else {
      errors_counter().increment();
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (primary[i] == i) out[i] = std::move(computed[i]);
  }
  return out;
}

std::shared_ptr<Engine::ResidentSuite> Engine::find_resident(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(resident_mutex_);
  const auto it = residents_.find(name);
  return it == residents_.end() ? nullptr : it->second;
}

MutateResponse Engine::rescore_locked(const MutateRequest& request,
                                      ResidentSuite& resident) {
  MutateResponse response;
  response.id = request.id;
  response.suite = request.suite;
  response.version = resident.version;
  response.trace_id = request.trace_id;

  // Honest content addressing: the key digests the suite's *current*
  // matrix, so an add→drop round-trip back to previous content is a
  // legitimate cache hit and a mutation can never serve a stale report.
  const Key128 key =
      result_cache_key(digests_.matrix_digest(resident.data), request.events);
  if (auto cached = cache_.get_memory(key)) {
    hit_counter().increment();
    response.ok = true;
    response.cache_hit = true;
    response.report = std::move(*cached);
    return response;
  }
  if (auto durable = cache_.get_durable(key)) {
    durable_hit_counter().increment();
    hit_counter().increment();
    response.ok = true;
    response.cache_hit = true;
    response.report = std::move(*durable);
    return response;
  }

  ScoreRequest score_request;
  score_request.id = request.id;
  score_request.events = request.events;
  score_request.data = resident.data;
  score_request.trace_id = request.trace_id;
  const ScoreResponse scored =
      compute_with(score_request, *resident.data, *resident.workspace);
  if (!scored.ok) {
    errors_counter().increment();
    response.ok = false;
    response.error = scored.error;
    response.message = scored.message;
    return response;
  }
  cache_.put(key, scored.report);
  miss_counter().increment();
  response.ok = true;
  response.cache_hit = false;
  response.report = scored.report;
  return response;
}

MutateResponse Engine::mutate(const MutateRequest& request) {
  obs::Span span("serve.mutate");
  obs::LatencyTimer timer(request_latency_histogram(), &request_latency());
  MutateResponse response = mutate_inner(request);
  response.trace_id = request.trace_id;
  if (obs::Logger::instance().enabled(obs::LogLevel::kDebug)) {
    const TraceHex trace(response.trace_id);
    obs::log_debug(
        "serve.mutate",
        {obs::field("trace", trace.text), obs::field("id", response.id),
         obs::field("op", std::string(mutate_op_name(request.op))),
         obs::field("suite", request.suite),
         obs::field_bool("ok", response.ok),
         obs::field_f64("latency_us", timer.elapsed_us())});
  }
  return response;
}

MutateResponse Engine::mutate_inner(const MutateRequest& request) {
  requests_counter().increment();
  mutations_counter().increment();

  if (!core::EventGroup::find(request.events)) {
    errors_counter().increment();
    return mutate_error(request, "bad_request",
                        "unknown event group '" + request.events + "'");
  }

  if (request.op == MutateOp::LoadSuite) {
    if (is_builtin_suite(request.suite)) {
      errors_counter().increment();
      return mutate_error(request, "bad_request",
                          "suite name '" + request.suite +
                              "' is reserved for a built-in suite");
    }
    std::shared_ptr<const core::CounterMatrix> data;
    try {
      data = std::make_shared<const core::CounterMatrix>(
          request.series_text.empty()
              ? core::read_aggregates_csv_text(request.suite,
                                               request.csv_text)
              : core::read_with_series_csv_text(
                    request.suite, request.csv_text, request.series_text));
    } catch (const std::exception& e) {
      errors_counter().increment();
      return mutate_error(request, "bad_request", e.what());
    }
    auto resident = std::make_shared<ResidentSuite>();
    resident->data = std::move(data);
    resident->workspace = std::make_shared<core::ScoringWorkspace>();
    resident->version = 1;
    resident->events = request.events;
    {
      // A re-load replaces the whole resident: fresh workspace, version
      // restarts at 1. In-flight scores of the old resident finish on
      // their own shared_ptr snapshots.
      std::lock_guard<std::mutex> lock(resident_mutex_);
      residents_[request.suite] = resident;
    }
    std::unique_lock<std::shared_mutex> lock(resident->rw);
    return rescore_locked(request, *resident);
  }

  const auto resident = find_resident(request.suite);
  if (!resident) {
    errors_counter().increment();
    return mutate_error(request, "bad_request",
                        "unknown resident suite '" + request.suite +
                            "' (load_suite first)");
  }

  // Writer lock across mutation + workspace maintenance + re-score: the
  // ScoringWorkspace delta ops require external serialization against
  // readers, and the response must score exactly the version it reports.
  std::unique_lock<std::shared_mutex> lock(resident->rw);
  const core::CounterMatrix& base = *resident->data;
  std::optional<core::CounterMatrix> next;
  std::vector<std::size_t> upserts;  // row indices of `next` to upsert
  std::string dropped;               // workload to unmap from the cache
  try {
    switch (request.op) {
      case MutateOp::AddWorkload: {
        const std::size_t before = base.num_workloads();
        next.emplace(core::append_workloads_csv_text(base, request.csv_text,
                                                     request.series_text));
        for (std::size_t w = before; w < next->num_workloads(); ++w) {
          upserts.push_back(w);
        }
        break;
      }
      case MutateOp::DropWorkload: {
        std::size_t at = 0;
        try {
          at = base.workload_index(request.workload);
        } catch (const std::invalid_argument&) {
          throw std::runtime_error("suite '" + request.suite +
                                   "' has no workload '" + request.workload +
                                   "'");
        }
        if (base.num_workloads() <= 2) {
          throw std::runtime_error(
              "suite '" + request.suite + "' has only " +
              std::to_string(base.num_workloads()) +
              " workloads; scoring needs at least 2");
        }
        std::vector<std::size_t> keep;
        keep.reserve(base.num_workloads() - 1);
        for (std::size_t w = 0; w < base.num_workloads(); ++w) {
          if (w != at) keep.push_back(w);
        }
        next.emplace(base.select_workloads(keep));
        dropped = request.workload;
        break;
      }
      case MutateOp::AppendSamples: {
        next.emplace(core::append_samples_csv_text(base, request.series_text,
                                                   &upserts));
        break;
      }
      case MutateOp::LoadSuite:
        break;  // handled above
    }
  } catch (const std::exception& e) {
    errors_counter().increment();
    return mutate_error(request, "bad_request", e.what());
  }

  // Incremental workspace maintenance: one DTW strip per touched row
  // (upsert) or a name mask (drop) — never a cold O(n^2) re-prime. A
  // declined upsert (workspace primed under a different filter than
  // this suite's) is harmless: map_rows verifies normalized trends
  // element-wise, so a stale row can only miss, never serve wrong bits.
  if (!resident->workspace->trend_primed()) resident->events = request.events;
  if (resident->workspace->trend_usable()) {
    try {
      const auto group =
          core::EventGroup::by_name<std::runtime_error>(resident->events);
      std::optional<core::CounterMatrix> filtered;
      const core::CounterMatrix* view = &*next;
      if (!group.is_all()) {
        filtered.emplace(next->select_counters(
            group.indices_in(next->counter_names())));
        view = &*filtered;
      }
      if (!dropped.empty()) resident->workspace->remove_row(dropped);
      for (const std::size_t row : upserts) {
        resident->workspace->upsert_row(*view, row,
                                        core::TrendScoreOptions{});
      }
    } catch (const std::exception&) {
      // The filter selects nothing from the mutated counters; the
      // re-score below reports the scoring error.
    }
  }

  ++resident->version;
  resident->data =
      std::make_shared<const core::CounterMatrix>(std::move(*next));
  return rescore_locked(request, *resident);
}

}  // namespace perspector::serve
