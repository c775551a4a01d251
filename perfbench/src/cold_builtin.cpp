// cold_builtin: a closed loop of one caller sending serve::Engine::score
// for the six paper suites at ~500k instructions per workload. Every
// request has a budget no earlier request used, so each one pays the full
// simulate -> prime -> score -> report path, and simulation dominates.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "generate.hpp"
#include "replay.hpp"
#include "serve/engine.hpp"
#include "suites/suite_factory.hpp"

namespace perfbench {

namespace serve = perspector::serve;

namespace {

struct Done {
  BuiltinRequest request;
  double latency_s = 0.0;
  std::string report;
};

serve::ScoreRequest to_request(const BuiltinRequest& r, std::size_t id) {
  serve::ScoreRequest request;
  request.id = std::to_string(id);
  request.builtin = r.suite;
  request.instructions = r.instructions;
  request.events = r.events;
  return request;
}

std::uint64_t scaled_budget(std::uint64_t budget, double scale) {
  return std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(static_cast<double>(budget) * scale));
}

/// Sends every request of `rounds` through the engine; stops starting new
/// rounds once `seconds` would be exceeded (at least one round runs).
std::vector<Done> run_rounds(serve::Engine& engine, const Options& options,
                             std::uint64_t max_rounds, double seconds,
                             Result& result) {
  std::vector<Done> done;
  const auto start = Clock::now();
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    const double elapsed = seconds_between(start, Clock::now());
    if (round > 0 && elapsed * (round + 1) / round > seconds) break;
    for (auto r : cold_round(options.seed, round)) {
      r.instructions = scaled_budget(r.instructions, options.scale);
      const serve::ScoreRequest request = to_request(r, done.size());
      result.attempt();
      const auto t0 = Clock::now();
      const serve::ScoreResponse response = engine.score(request);
      const double latency = seconds_between(t0, Clock::now());
      if (!response.ok || response.id != request.id) {
        result.failed_op("cold_builtin " + r.suite + ": " + response.error +
                         " " + response.message);
        continue;
      }
      if (response.cache_hit) result.fail("cold_builtin request hit a cache");
      if (!report_scores_finite(response.report)) {
        result.fail("cold_builtin " + r.suite + ": report lacks 4 finite scores");
      }
      done.push_back({r, latency, response.report});
    }
  }
  return done;
}

double p50(const std::vector<Done>& done) {
  std::vector<double> latencies;
  for (const auto& d : done) latencies.push_back(d.latency_s);
  return median(latencies);
}

/// The median over rounds of a round's mean request latency. The six
/// suites differ several-fold in cost, so the median of all requests
/// sits on the edge between two suites and jumps between runs; a round
/// mean weighs every suite alike.
double round_mean_p50(const std::vector<Done>& done) {
  const std::size_t per_round = paper_suites().size();
  std::vector<double> means;
  for (std::size_t i = 0; i + per_round <= done.size(); i += per_round) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + per_round; ++j) sum += done[j].latency_s;
    means.push_back(sum / static_cast<double>(per_round));
  }
  return median(means);
}

}  // namespace

int run_cold_builtin(const Options& options, Result& result) {
  std::unique_ptr<serve::Engine> engine;
  const double setup_s = timed_setup(kSetupRepeats, [&] {
    // A fresh engine (thread pool spin-up) plus one small request per
    // suite, so lazy set-up is paid before timing starts.
    engine = std::make_unique<serve::Engine>();
    for (const auto& suite : paper_suites()) {
      serve::ScoreRequest warm;
      warm.builtin = suite;
      warm.instructions = 5000;
      if (!engine->score(warm).ok) result.fail("cold_builtin warm-up failed");
    }
  });

  const auto before = counter_snapshot();
  const auto t0 = Clock::now();
  const std::uint64_t max_rounds = options.trace ? 1 : 1000;
  const std::vector<Done> done =
      run_rounds(*engine, options, max_rounds, options.seconds, result);
  const double wall_s = seconds_between(t0, Clock::now());
  const double rss_mb = peak_rss_mb();
  const auto after = counter_snapshot();
  if (done.size() < paper_suites().size()) {
    result.fail("cold_builtin: first round incomplete");
    return result.print();
  }

  const double instructions =
      static_cast<double>(delta(after, before, "sim.instructions"));
  double busy_s = 0.0;
  for (const auto& d : done) busy_s += d.latency_s;
  const double minstr_per_s = instructions / 1e6 / busy_s;

  // Output digest: the first round's reports (always complete).
  std::uint64_t digest = fnv1a("cold_builtin");
  for (std::size_t i = 0; i < paper_suites().size(); ++i) {
    digest = fnv1a(done[i].report, digest);
  }
  result.note("digest " + hex64(digest));
  result.note("samples cold requests=" + std::to_string(done.size()) +
              " rounds=" + std::to_string(done.size() / paper_suites().size()));

  // Determinism contract: a seeded sample re-computed untimed through
  // core::Perspector + core::suite_report must match byte for byte.
  Rng pick = Rng(options.seed).fork(99);
  const Done& sample = done[pick.between(0, done.size() - 1)];
  const std::string expected = reference_report(
      serve::simulate_builtin(sample.request.suite, sample.request.instructions),
      sample.request.events);
  if (expected != sample.report) {
    result.fail("cold_builtin " + sample.request.suite +
                ": report differs from the one-shot recompute");
  }

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = rss_mb;
    e2e.latency_ms = round_mean_p50(done) * 1e3;
    e2e.throughput = minstr_per_s;
    emit_end_to_end(result, e2e);
    return result.print();
  }

  // Traced run: replay the same round through the layer functions with a
  // span around each, and check every replayed report against the engine.
  SpanLog spans;
  spans.enable(true);
  const auto r0 = Clock::now();
  for (std::size_t i = 0; i < done.size(); ++i) {
    spans.set_request(i + 1);
    SpanLog::Scope op(spans, "op");
    std::optional<perspector::core::CounterMatrix> data;
    {
      SpanLog::Scope sim(spans, "sim");
      data.emplace(serve::simulate_builtin(done[i].request.suite,
                                           done[i].request.instructions));
    }
    if (replay_score(spans, *data, done[i].request.events) != done[i].report) {
      result.fail("cold_builtin " + done[i].request.suite +
                  ": replayed report differs from the engine's");
    }
  }
  const double traced_wall_s = seconds_between(r0, Clock::now());
  spans.write(options.work_dir + "/spans_cold_builtin.jsonl");

  std::map<std::string, double> layers;
  layers["cold_minstr_per_s"] = minstr_per_s;
  layers["cold_p50_s"] = p50(done);
  layers["failed_frac"] = static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted());
  layers["op.samples"] = static_cast<double>(done.size());
  add_layer_times(layers, spans, traced_wall_s);
  layers["sim.host_minstr_per_s"] =
      instructions / 1e6 / std::max(layers["sim.busy_s"], 1e-9);
  layers["sim.instructions"] = instructions;
  // Every request simulates its own (suite, budget): no workload is
  // simulated twice, so this ratio is 1 by construction of the inputs.
  double distinct = 0.0;
  for (const auto& d : done) {
    distinct += static_cast<double>(
        perspector::suites::suite_by_name(d.request.suite).workloads.size());
  }
  layers["sim.workloads_per_distinct"] =
      static_cast<double>(delta(after, before, "sim.workloads")) / distinct;
  layers["dtw.cells"] = static_cast<double>(delta(after, before, "dtw.cells"));
  const double hits = static_cast<double>(delta(after, before, "cache.hits"));
  const double misses = static_cast<double>(delta(after, before, "cache.misses"));
  layers["dtw.prime_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers["cluster.kmeans_iterations"] =
      static_cast<double>(delta(after, before, "kmeans.iterations"));
  layers["cluster.silhouette_evals"] =
      static_cast<double>(delta(after, before, "silhouette.evaluations"));
  layers["pca.eigen_sweeps"] =
      static_cast<double>(delta(after, before, "eigen.sweeps"));
  layers["stats.ks_tests"] =
      static_cast<double>(delta(after, before, "spread.ks_tests"));
  layers["par.tasks"] = static_cast<double>(delta(after, before, "par.tasks"));
  const double acquires =
      static_cast<double>(delta(after, before, "mem.scratch.acquires"));
  layers["mem.scratch_reuse_ratio"] =
      acquires > 0
          ? static_cast<double>(delta(after, before, "mem.scratch.reuses")) / acquires
          : 0.0;
  layers["obs.trace_overhead"] = traced_wall_s / wall_s;
  emit_layers(result, layers);
  return result.print();
}

}  // namespace perfbench
