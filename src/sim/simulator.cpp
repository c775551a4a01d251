#include "sim/simulator.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "stats/rng.hpp"

namespace perspector::sim {

namespace {

// Hashes the name in-repo (libstdc++'s std::hash<std::string> function),
// so every standard library derives the same seeds and counters.
std::uint64_t workload_seed(std::uint64_t base, const std::string& name) {
  return base ^ stats::hash_bytes(name);
}

}  // namespace

const std::vector<double>& SimResult::series_for(PmuEvent event) const {
  const auto idx = static_cast<std::size_t>(event);
  if (idx >= series.size()) {
    throw std::out_of_range("SimResult::series_for: series not collected");
  }
  return series[idx];
}

SimResult simulate(const WorkloadSpec& workload, const MachineConfig& machine,
                   const SimOptions& options) {
  workload.validate();

  CoreModel core(machine, workload_seed(options.seed, workload.name));
  PmuSampler sampler(options.sample_interval);
  PmuSampler* sampler_ptr = options.collect_series ? &sampler : nullptr;

  // Apportion the instruction budget across phases by weight; rounding
  // remainders go to the last phase so the total is exact.
  double total_weight = 0.0;
  for (const auto& phase : workload.phases) total_weight += phase.weight;

  std::uint64_t spent = 0;
  for (std::size_t p = 0; p < workload.phases.size(); ++p) {
    std::uint64_t budget;
    if (p + 1 == workload.phases.size()) {
      budget = workload.instructions - spent;
    } else {
      budget = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(workload.instructions) *
          workload.phases[p].weight / total_weight));
      budget = std::min(budget, workload.instructions - spent);
    }
    core.run_phase(workload.phases[p], budget, p, sampler_ptr);
    spent += budget;
  }

  if (sampler_ptr) {
    sampler.finalize(core.instructions_retired(), core.counters());
  }

  static obs::Counter& workloads = obs::counter("sim.workloads");
  static obs::Counter& instructions = obs::counter("sim.instructions");
  workloads.increment();
  instructions.add(core.instructions_retired());

  SimResult result;
  result.workload = workload.name;
  result.totals = core.counters();
  result.instructions = core.instructions_retired();
  result.cycles = core.cycles();
  result.work = core.work();
  if (options.collect_series) result.series = sampler.all_series();
  return result;
}

std::vector<SimResult> simulate_suite(const SuiteSpec& suite,
                                      const MachineConfig& machine,
                                      const SimOptions& options) {
  suite.validate();
  obs::Span span("simulate_suite");
  // Workload simulations never share state: each CoreModel draws from its
  // own RNG stream seeded by the workload name (see workload_seed), so the
  // counters are the same whether workloads run serially, in parallel, or
  // in any order. Results land in index-owned slots to keep suite order.
  std::vector<SimResult> results(suite.workloads.size());
  par::parallel_for(suite.workloads.size(), [&](std::size_t w) {
    obs::Span workload_span("sim/" + suite.workloads[w].name);
    results[w] = simulate(suite.workloads[w], machine, options);
  });
  return results;
}

}  // namespace perspector::sim
