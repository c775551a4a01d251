#include "sim/multicore.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "sim/cache.hpp"
#include "sim/core_model.hpp"
#include "stats/rng.hpp"

namespace perspector::sim {

namespace {

// Per-core scheduling state: the workload's phase plan and progress.
struct CoreLane {
  const WorkloadSpec* workload = nullptr;
  std::unique_ptr<CoreModel> core;
  std::unique_ptr<PmuSampler> sampler;
  std::vector<std::uint64_t> phase_budgets;
  std::size_t phase_index = 0;
  std::uint64_t spent_in_phase = 0;
  bool phase_started = false;

  bool finished() const { return phase_index >= phase_budgets.size(); }
};

std::vector<std::uint64_t> plan_phases(const WorkloadSpec& workload) {
  double total_weight = 0.0;
  for (const auto& phase : workload.phases) total_weight += phase.weight;

  std::vector<std::uint64_t> budgets;
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
    budgets.push_back(budget);
    spent += budget;
  }
  return budgets;
}

}  // namespace

std::vector<SimResult> simulate_colocated(
    const std::vector<WorkloadSpec>& workloads, const MachineConfig& machine,
    const MulticoreOptions& options) {
  if (workloads.empty()) {
    throw std::invalid_argument("simulate_colocated: no workloads");
  }
  if (options.quantum == 0) {
    throw std::invalid_argument("simulate_colocated: quantum must be > 0");
  }
  for (const auto& w : workloads) w.validate();

  Cache shared_llc(machine.llc);

  std::vector<CoreLane> lanes(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    CoreLane& lane = lanes[i];
    lane.workload = &workloads[i];
    // Distinct address offset per core: co-located processes do not share
    // their data regions.
    lane.core = std::make_unique<CoreModel>(
        machine, options.seed ^ stats::hash_bytes(workloads[i].name),
        &shared_llc, static_cast<std::uint64_t>(i) << 44);
    if (options.collect_series) {
      lane.sampler = std::make_unique<PmuSampler>(options.sample_interval);
    }
    lane.phase_budgets = plan_phases(workloads[i]);
  }

  // Round-robin quanta until every lane drains.
  bool any_running = true;
  while (any_running) {
    any_running = false;
    for (CoreLane& lane : lanes) {
      if (lane.finished()) continue;
      any_running = true;

      if (!lane.phase_started) {
        lane.core->start_phase(lane.workload->phases[lane.phase_index],
                               lane.phase_index);
        lane.phase_started = true;
        lane.spent_in_phase = 0;
      }
      const std::uint64_t remaining =
          lane.phase_budgets[lane.phase_index] - lane.spent_in_phase;
      const std::uint64_t chunk = std::min(options.quantum, remaining);
      lane.core->step(chunk, lane.sampler.get());
      lane.spent_in_phase += chunk;
      if (lane.spent_in_phase >= lane.phase_budgets[lane.phase_index]) {
        ++lane.phase_index;
        lane.phase_started = false;
      }
    }
  }

  std::vector<SimResult> results;
  results.reserve(lanes.size());
  for (CoreLane& lane : lanes) {
    if (lane.sampler) {
      lane.sampler->finalize(lane.core->instructions_retired(),
                             lane.core->counters());
    }
    SimResult result;
    result.workload = lane.workload->name;
    result.totals = lane.core->counters();
    result.instructions = lane.core->instructions_retired();
    result.cycles = lane.core->cycles();
    result.work = lane.core->work();
    if (lane.sampler) result.series = lane.sampler->all_series();
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace perspector::sim
