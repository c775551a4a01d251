// Top-level workload simulator: runs a WorkloadSpec (or a whole suite) on a
// MachineConfig and returns aggregate PMU counters plus sampled time series
// — the synthetic equivalent of `perf stat` / `perf stat -I` on the paper's
// testbed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/core_model.hpp"
#include "sim/machine_config.hpp"
#include "sim/pmu.hpp"
#include "sim/workload.hpp"

namespace perspector::sim {

/// Knobs of a simulation run.
struct SimOptions {
  /// PMU sampling interval in instructions (`perf stat -I` analogue).
  std::uint64_t sample_interval = 20'000;
  /// Base seed; the per-workload seed also hashes the workload name, so
  /// results are independent of execution order.
  std::uint64_t seed = 1;
  /// When false, time series are not collected (aggregates only; faster).
  bool collect_series = true;
};

/// Complete result of simulating one workload.
struct SimResult {
  std::string workload;
  PmuCounterSet totals;
  /// Per-event sampled delta series, indexed [event][sample]; empty when
  /// series collection is disabled.
  std::vector<std::vector<double>> series;
  std::uint64_t instructions = 0;
  double cycles = 0.0;
  SimWork work;

  double ipc() const {
    return cycles <= 0.0 ? 0.0 : static_cast<double>(instructions) / cycles;
  }
  /// Time series of one event.
  const std::vector<double>& series_for(PmuEvent event) const;
};

/// Simulates one workload. Validates the spec first.
SimResult simulate(const WorkloadSpec& workload, const MachineConfig& machine,
                   const SimOptions& options = {});

/// Simulates every workload in a suite (independent cores, fresh state).
std::vector<SimResult> simulate_suite(const SuiteSpec& suite,
                                      const MachineConfig& machine,
                                      const SimOptions& options = {});

}  // namespace perspector::sim
