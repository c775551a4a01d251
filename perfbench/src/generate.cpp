#include "generate.hpp"

#include <cmath>
#include <numbers>
#include <set>

#include "sim/pmu.hpp"

namespace perfbench {

namespace core = perspector::core;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

const std::vector<std::string>& event_groups() {
  static const std::vector<std::string> kGroups = {"all", "llc", "tlb",
                                                   "branch"};
  return kGroups;
}

const std::vector<std::string>& paper_suites() {
  static const std::vector<std::string> kSuites = {
      "nbench", "parsec", "ligra", "lmbench", "sgxgauge", "spec17"};
  return kSuites;
}

std::vector<BuiltinRequest> cold_round(std::uint64_t seed,
                                       std::uint64_t round) {
  // Budget slots are drawn without replacement from the +-4% band, per
  // suite, so two rounds of one run never send the same (suite, budget).
  // Each suite's event group cycles through all four from a seeded start,
  // so every four rounds score each suite once under each group and the
  // amount of work does not depend on the seed.
  constexpr std::uint64_t kBase = 500'000;
  constexpr std::uint64_t kBand = 20'000;  // 4% of 500k
  std::vector<BuiltinRequest> out;
  for (std::size_t s = 0; s < paper_suites().size(); ++s) {
    Rng rng(seed * 1000003 + s);
    const std::uint64_t first_group = rng.between(0, event_groups().size() - 1);
    std::set<std::uint64_t> used;
    std::uint64_t budget = 0;
    for (std::uint64_t r = 0; r <= round; ++r) {
      do {
        budget = kBase - kBand + rng.between(0, 2 * kBand);
      } while (!used.insert(budget).second);
    }
    out.push_back({paper_suites()[s], budget,
                   event_groups()[(first_group + round) % event_groups().size()]});
  }
  return out;
}

core::CounterMatrix synthetic_suite(Rng& rng, const std::string& name,
                                    std::size_t workloads, std::size_t samples,
                                    const std::string& workload_prefix) {
  const std::vector<std::string> counters = perspector::sim::pmu_event_names();
  std::vector<std::string> names;
  perspector::la::Matrix values(workloads, counters.size());
  std::vector<std::vector<std::vector<double>>> series(workloads);
  for (std::size_t w = 0; w < workloads; ++w) {
    names.push_back(workload_prefix + std::to_string(w));
    // Each workload has a few phases; every counter follows them with its
    // own scale, so workloads differ in level and in shape.
    const double phase_freq = rng.uniform(0.5, 4.0);
    const double phase_shift = rng.uniform(0.0, 2.0 * std::numbers::pi);
    series[w].resize(counters.size());
    for (std::size_t c = 0; c < counters.size(); ++c) {
      const double level = std::exp(rng.uniform(std::log(1e2), std::log(1e6)));
      const double swing = rng.uniform(0.05, 0.9);
      double total = 0.0;
      auto& s = series[w][c];
      s.resize(samples);
      for (std::size_t t = 0; t < samples; ++t) {
        const double x = static_cast<double>(t) / static_cast<double>(samples);
        const double wave =
            std::sin(2.0 * std::numbers::pi * phase_freq * x + phase_shift);
        s[t] = std::round(level * (1.0 + swing * wave) *
                          rng.uniform(0.9, 1.1));
        total += s[t];
      }
      values.at(w, c) = total;
    }
  }
  return core::CounterMatrix(name, std::move(names), counters,
                             std::move(values), std::move(series));
}

std::vector<perspector::jobs::JobSpec> job_batch(std::uint64_t seed,
                                                 std::uint64_t batch,
                                                 std::size_t jobs,
                                                 std::uint64_t candidates) {
  // A few small suites shared by many jobs: each job re-simulates its
  // suite, which is the redundancy ROADMAP item 1 targets. The jobs of a
  // batch share one suite, so the order the scheduler runs them in (by
  // job id, a hash of the spec) does not change the batch's turnaround.
  // Event groups and target sizes go by position, so every run does the
  // same mix of work and the seed changes which candidates each search
  // draws, not how much it costs.
  static const std::vector<std::string> kSuites = {"nbench", "sgxgauge",
                                                   "lmbench"};
  std::vector<perspector::jobs::JobSpec> out;
  for (std::size_t j = 0; j < jobs; ++j) {
    perspector::jobs::JobSpec spec;
    spec.builtin = kSuites[batch % kSuites.size()];
    spec.instructions = 500'000;
    spec.events = event_groups()[(batch + j) % event_groups().size()];
    spec.target_size = 4 + (batch + j) % 3;
    spec.candidates = candidates;
    // Seeds are unique per (batch, job): no two jobs share a spec.
    spec.seed = (seed << 24) ^ (batch << 12) ^ j;
    spec.client = std::to_string(j % 4);
    out.push_back(std::move(spec));
  }
  return out;
}

IngestInputs ingest_inputs(std::uint64_t seed, double scale) {
  Rng rng = Rng(seed).fork(7);
  // The aggregates dump stays above the 1 MiB streamed-read threshold at
  // every scale, so the CsvStream file path always runs.
  const std::size_t aggregates_rows = 16000;
  const auto series_rows =
      static_cast<std::size_t>(std::max(8.0, 120.0 * scale));
  IngestInputs inputs;
  const core::CounterMatrix full =
      synthetic_suite(rng, "dump", aggregates_rows, 1);
  inputs.aggregates = core::CounterMatrix(
      "dump", full.workload_names(), full.counter_names(), full.values());
  inputs.series = synthetic_suite(rng, "traces", series_rows, 100);
  return inputs;
}

std::vector<double> matrix_doubles(const core::CounterMatrix& m) {
  std::vector<double> out;
  for (std::size_t w = 0; w < m.num_workloads(); ++w) {
    for (std::size_t c = 0; c < m.num_counters(); ++c) out.push_back(m.value(w, c));
  }
  if (m.has_series()) {
    for (std::size_t w = 0; w < m.num_workloads(); ++w) {
      for (std::size_t c = 0; c < m.num_counters(); ++c) {
        const auto& s = m.series(w, c);
        out.insert(out.end(), s.begin(), s.end());
      }
    }
  }
  return out;
}

}  // namespace perfbench
