// job_drain: a closed loop of one caller submitting batches of
// subset-search jobs (Engine::job) over a few small built-in suites at
// 500k instructions, with checkpointing on, then driving Engine::jobs_step
// until every job is terminal. Each job re-simulates and re-primes its
// suite, so simulation is repeated work here.
#include <filesystem>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "generate.hpp"
#include "serve/engine.hpp"
#include "store/checkpoint_log.hpp"
#include "suites/suite_factory.hpp"

namespace perfbench {

namespace serve = perspector::serve;
namespace jobs = perspector::jobs;

namespace {

constexpr std::size_t kJobsPerBatch = 2;
constexpr std::uint64_t kBatchesPerRound = 3;  // one batch per suite
constexpr std::uint64_t kCandidates = 8;

struct Batch {
  std::vector<jobs::JobSpec> specs;
  std::vector<double> submit_s;
  std::vector<double> step_s;
  std::vector<double> turnaround_s;  // submit -> observed terminal, per job
  double wall_s = 0.0;
  std::size_t done = 0;      // jobs that reached Done
  std::string digest_input;  // best subsets, in submit order
};

std::string fresh_dir(const Options& options, const std::string& tag) {
  static int counter = 0;
  const std::string dir = options.work_dir + "/jobs-" + tag + "-" +
                          std::to_string(++counter);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<serve::Engine> make_engine(const std::string& checkpoint_dir) {
  serve::EngineOptions engine_options;
  engine_options.jobs.checkpoint_dir = checkpoint_dir;
  return std::make_unique<serve::Engine>(engine_options);
}

/// Submits one batch, drains it, and checks every job reached Done.
///
/// With `sim_spans` (the traced run), each of the batch's first steps is
/// followed by a replay of one job's simulation under a "sim" span. Each
/// of those steps builds one job's search, which simulates its suite, and
/// the jobs of a batch share their suite and budget, so every replay
/// repeats the simulation of the step right before it, while the host
/// runs at about the same speed. The batch's wall time leaves the
/// replays out.
Batch run_batch(serve::Engine& engine, std::vector<jobs::JobSpec> specs,
                double scale, SpanLog& spans, Result& result,
                SpanLog* sim_spans = nullptr) {
  Batch batch;
  batch.specs = std::move(specs);
  const auto t0 = Clock::now();
  std::vector<std::string> ids;
  std::vector<Clock::time_point> submitted;
  for (auto& spec : batch.specs) {
    spec.instructions = std::max<std::uint64_t>(
        2000, static_cast<std::uint64_t>(static_cast<double>(spec.instructions) * scale));
    serve::JobRequest request;
    request.id = std::to_string(ids.size());
    request.op = serve::JobOp::Submit;
    request.spec = spec;
    result.attempt();
    const auto s0 = Clock::now();
    serve::JobResponse response;
    {
      SpanLog::Scope span(spans, "jobs.submit");
      response = engine.job(request);
    }
    batch.submit_s.push_back(seconds_between(s0, Clock::now()));
    if (!response.ok) {
      result.failed_op("job_drain submit: " + response.error + " " + response.message);
      continue;
    }
    ids.push_back(response.status.id);
    submitted.push_back(s0);
  }
  // Each job's turnaround runs from its submit to the first status poll
  // after a step that finds it terminal.
  std::vector<bool> finished(ids.size(), false);
  double replay_s = 0.0;
  for (std::size_t step = 0; engine.jobs_runnable(); ++step) {
    const auto s0 = Clock::now();
    {
      SpanLog::Scope span(spans, "jobs.step");
      engine.jobs_step();
    }
    const auto s1 = Clock::now();
    if (sim_spans != nullptr && step < batch.specs.size()) {
      const auto r0 = Clock::now();
      {
        SpanLog::Scope span(*sim_spans, "sim");
        serve::simulate_builtin(batch.specs[step].builtin, batch.specs[step].instructions);
      }
      replay_s += seconds_between(r0, Clock::now());
    }
    batch.step_s.push_back(seconds_between(s0, s1));
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (finished[j]) continue;
      serve::JobRequest poll;
      poll.op = serve::JobOp::Status;
      poll.job = ids[j];
      if (jobs::is_terminal(engine.job(poll).status.state)) {
        finished[j] = true;
        batch.turnaround_s.push_back(seconds_between(submitted[j], s1));
      }
    }
  }
  batch.wall_s = seconds_between(t0, Clock::now()) - replay_s;
  for (const auto& id : ids) {
    serve::JobRequest request;
    request.op = serve::JobOp::Status;
    request.job = id;
    const serve::JobResponse status = engine.job(request);
    if (!status.ok || status.status.state != jobs::JobState::Done) {
      result.failed_op("job_drain: job " + id + " did not reach Done: " +
                       status.status.error);
      continue;
    }
    ++batch.done;
    if (!status.status.best.valid) result.fail("job_drain: job " + id + " has no best subset");
    batch.digest_input += id;
    for (const auto& name : status.status.best.names) batch.digest_input += "," + name;
    char deviation[64];
    std::snprintf(deviation, sizeof deviation, ";%.17g\n",
                  status.status.best.deviation_pct);
    batch.digest_input += deviation;
  }
  return batch;
}

/// One round: a batch on each suite, drained one after another, merged.
Batch run_round(serve::Engine& engine, std::uint64_t seed, std::uint64_t round,
                double scale, SpanLog& spans, Result& result,
                SpanLog* sim_spans = nullptr) {
  Batch all;
  for (std::uint64_t k = 0; k < kBatchesPerRound; ++k) {
    Batch b = run_batch(engine,
                        job_batch(seed, round * kBatchesPerRound + k, kJobsPerBatch,
                                  kCandidates),
                        scale, spans, result, sim_spans);
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.specs, b.specs);
    append(all.submit_s, b.submit_s);
    append(all.step_s, b.step_s);
    append(all.turnaround_s, b.turnaround_s);
    all.wall_s += b.wall_s;
    all.done += b.done;
    all.digest_input += b.digest_input;
  }
  return all;
}

}  // namespace

int run_job_drain(const Options& options, Result& result) {
  std::unique_ptr<serve::Engine> engine;
  SpanLog no_spans;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    // A fresh engine over an empty checkpoint directory, then one job of
    // the timed size drained (a seed no timed job uses), so lazy set-up
    // is paid before timing starts and set-up time is mostly computation
    // rather than a few file-system calls.
    engine.reset();
    engine = make_engine(fresh_dir(options, "setup"));
    Result scratch;
    run_batch(*engine, job_batch(options.seed, 1000, 1, kCandidates), options.scale,
              no_spans, scratch);
    if (!scratch.correct()) result.fail("job_drain warm-up job failed");
  });

  const auto before = counter_snapshot();
  std::vector<Batch> rounds;
  const auto t0 = Clock::now();
  const std::uint64_t max_rounds = options.trace ? 1 : 1000;
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    const double elapsed = seconds_between(t0, Clock::now());
    if (r > 0 && elapsed * static_cast<double>(r + 1) / static_cast<double>(r) >
                     options.seconds) {
      break;
    }
    rounds.push_back(run_round(*engine, options.seed, r, options.scale, no_spans, result));
  }
  const double wall_s = seconds_between(t0, Clock::now());
  const double rss_mb = peak_rss_mb();
  const auto after = counter_snapshot();

  // Pooled over whole rounds: the mean job turnaround and jobs Done per
  // second of drain. Every round does the same mix of work, so the means
  // do not depend on where the time limit cut the run.
  std::vector<double> submits;
  double turnaround_sum = 0.0;
  std::size_t turnarounds = 0;
  double drain_s = 0.0;
  std::size_t jobs_done = 0;
  for (const auto& b : rounds) {
    submits.insert(submits.end(), b.submit_s.begin(), b.submit_s.end());
    turnaround_sum += std::accumulate(b.turnaround_s.begin(), b.turnaround_s.end(), 0.0);
    turnarounds += b.turnaround_s.size();
    drain_s += b.wall_s;
    jobs_done += b.done;
  }
  const double jobs_per_s = static_cast<double>(jobs_done) / drain_s;
  result.note("digest " + hex64(fnv1a(rounds.front().digest_input)));
  result.note("samples jobs=" + std::to_string(jobs_done) +
              " rounds=" + std::to_string(rounds.size()) +
              " submits=" + std::to_string(submits.size()));

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = rss_mb;
    e2e.latency_ms =
        turnaround_sum / static_cast<double>(std::max<std::size_t>(1, turnarounds)) * 1e3;
    e2e.throughput = jobs_per_s;
    emit_end_to_end(result, e2e);
    return result.print();
  }

  // Traced run: the same round on a fresh engine with spans around every
  // submit and step. Inside a step, the obs histograms the program keeps
  // give the trend prime (dtw) and candidate scoring (core) time; the
  // simulation each job repeats is replayed next to its step with the
  // same function and arguments (see run_batch), and paired back into it.
  SpanLog spans;
  spans.enable(true);
  SpanLog sim_spans;
  sim_spans.enable(true);
  auto traced_engine = make_engine(fresh_dir(options, "traced"));
  const auto th_before = histogram_sums();
  Batch traced =
      run_round(*traced_engine, options.seed, 0, options.scale, spans, result, &sim_spans);
  const double traced_wall_s = traced.wall_s;
  const auto th_after = histogram_sums();
  if (traced.digest_input != rounds.front().digest_input) {
    result.fail("job_drain: traced round differs from the timed one");
  }
  const double sim_s = sim_spans.self_seconds()["sim"];
  const double prime_s = delta(th_after, th_before, "cache.prime.latency") / 1e6;
  const double candidate_s = delta(th_after, th_before, "jobs.candidate.latency") / 1e6;

  // A job primes its trend cache lazily inside its first candidate, so
  // the prime time is part of the candidate time: candidate scoring's
  // self time is the candidate time without it.
  std::map<std::string, double> layers;
  add_layer_times(layers, spans, traced_wall_s);
  const double step_total = layers["jobs.step_busy_s"];
  layers["jobs.step_busy_s"] = std::max(0.0, step_total - sim_s - candidate_s);
  layers["sim.busy_s"] = sim_s;
  layers["dtw.busy_s"] = prime_s;
  layers["core.score_busy_s"] = std::max(0.0, candidate_s - prime_s);
  double layer_sum = 0.0;
  for (const char* name : {"jobs.submit_busy_s", "jobs.step_busy_s", "sim.busy_s",
                           "dtw.busy_s", "core.score_busy_s"}) {
    layer_sum += layers[name];
  }
  layers["trace.layer_sum_frac"] = layer_sum / traced_wall_s;
  layers["obs.trace_overhead"] = traced_wall_s / wall_s;
  layers["jobs.slice_p99_ms"] =
      percentile(traced.step_s, supported_quantile(traced.step_s.size(), 0.99)) * 1e3;

  layers["jobs_per_min"] = jobs_per_s * 60.0;
  layers["job_submit_p50_ms"] = median(submits) * 1e3;
  layers["failed_frac"] = static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted());
  layers["op.samples"] = static_cast<double>(submits.size());

  // Exact counts over the timed (untraced) drain.
  auto d = [&](const std::string& name) {
    return static_cast<double>(delta(after, before, name));
  };
  layers["sim.instructions"] = d("sim.instructions");
  // The replays simulate exactly the timed round's jobs.
  layers["sim.host_minstr_per_s"] = layers["sim.instructions"] / 1e6 / std::max(sim_s, 1e-9);
  // Distinct workloads: each (suite, budget) pair's workloads count once.
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> distinct;
  for (const auto& b : rounds) {
    for (const auto& spec : b.specs) {
      distinct[{spec.builtin, spec.instructions}] =
          perspector::suites::suite_by_name(spec.builtin).workloads.size();
    }
  }
  double distinct_workloads = 0.0;
  for (const auto& [key, n] : distinct) distinct_workloads += static_cast<double>(n);
  layers["sim.workloads_per_distinct"] = d("sim.workloads") / distinct_workloads;
  layers["dtw.cells"] = d("dtw.cells");
  const double hits = d("cache.hits");
  const double misses = d("cache.misses");
  layers["dtw.prime_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers["cluster.kmeans_iterations"] = d("kmeans.iterations");
  layers["cluster.silhouette_evals"] = d("silhouette.evaluations");
  layers["pca.eigen_sweeps"] = d("eigen.sweeps");
  layers["stats.ks_tests"] = d("spread.ks_tests");
  layers["jobs.candidates_evaluated"] = d("jobs.candidates_evaluated");
  const double cached = d("jobs.candidate_cache_hits");
  layers["jobs.candidate_cache_hit_ratio"] =
      d("jobs.candidates_evaluated") + cached > 0
          ? cached / (d("jobs.candidates_evaluated") + cached)
          : 0.0;
  layers["store.ckpt.appends"] = d("store.ckpt.appends");
  layers["par.tasks"] = d("par.tasks");
  const double acquires = d("mem.scratch.acquires");
  layers["mem.scratch_reuse_ratio"] = acquires > 0 ? d("mem.scratch.reuses") / acquires : 0.0;

  // The checkpoint append the engine makes at admission, timed through
  // the store's public log on the same directory tree.
  {
    const std::string path = fresh_dir(options, "store") + "/probe.ckpt";
    perspector::store::CheckpointLogOptions log_options;
    log_options.path = path;
    perspector::store::CheckpointLog log(log_options);
    std::vector<double> appends;
    const std::string payload(256, 'x');
    for (int i = 0; i < 32; ++i) {
      const auto a0 = Clock::now();
      if (!log.append(payload)) result.fail("job_drain: checkpoint append failed");
      appends.push_back(seconds_between(a0, Clock::now()) * 1e3);
    }
    layers["store.append_p50_ms"] = median(appends);
  }
  spans.write(options.work_dir + "/spans_job_drain.jsonl");
  emit_layers(result, layers);
  return result.print();
}

}  // namespace perfbench
