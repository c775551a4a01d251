#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perspector::sim {
namespace {

WorkloadSpec two_phase_workload() {
  WorkloadSpec w;
  w.name = "two-phase";
  w.instructions = 100'000;
  PhaseSpec stream;
  stream.name = "stream";
  stream.weight = 0.5;
  stream.load_frac = 0.4;
  // L1-resident: after warmup this phase barely stalls, so the contrast
  // with the pointer-chase phase is visible in the sampled series.
  stream.pattern = {.kind = AccessPatternKind::Sequential,
                    .working_set_bytes = 16 * 1024,
                    .stride_bytes = 8};
  PhaseSpec chase = stream;
  chase.name = "chase";
  chase.pattern.kind = AccessPatternKind::PointerChase;
  chase.pattern.working_set_bytes = 32ull << 20;
  w.phases = {stream, chase};
  return w;
}

TEST(WorkloadSpec, Validation) {
  WorkloadSpec w = two_phase_workload();
  EXPECT_NO_THROW(w.validate());

  WorkloadSpec unnamed = w;
  unnamed.name.clear();
  EXPECT_THROW(unnamed.validate(), std::invalid_argument);

  WorkloadSpec no_budget = w;
  no_budget.instructions = 0;
  EXPECT_THROW(no_budget.validate(), std::invalid_argument);

  WorkloadSpec no_phases = w;
  no_phases.phases.clear();
  EXPECT_THROW(no_phases.validate(), std::invalid_argument);

  WorkloadSpec bad_mix = w;
  bad_mix.phases[0].load_frac = 0.9;
  bad_mix.phases[0].store_frac = 0.5;
  EXPECT_THROW(bad_mix.validate(), std::invalid_argument);

  WorkloadSpec bad_weight = w;
  bad_weight.phases[0].weight = 0.0;
  EXPECT_THROW(bad_weight.validate(), std::invalid_argument);

  WorkloadSpec bad_prob = w;
  bad_prob.phases[0].branch_taken_prob = 1.5;
  EXPECT_THROW(bad_prob.validate(), std::invalid_argument);
}

TEST(SuiteSpec, Validation) {
  SuiteSpec suite;
  suite.name = "s";
  EXPECT_THROW(suite.validate(), std::invalid_argument);
  suite.workloads.push_back(two_phase_workload());
  EXPECT_NO_THROW(suite.validate());
  EXPECT_EQ(suite.workload_names(), std::vector<std::string>{"two-phase"});
  suite.name.clear();
  EXPECT_THROW(suite.validate(), std::invalid_argument);
}

TEST(Simulator, ExactInstructionBudget) {
  const SimResult r =
      simulate(two_phase_workload(), MachineConfig::xeon_e2186g());
  EXPECT_EQ(r.instructions, 100'000u);
  EXPECT_EQ(r.workload, "two-phase");
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_GT(r.ipc(), 0.0);
}

TEST(Simulator, SeriesShape) {
  SimOptions options;
  options.sample_interval = 10'000;
  const SimResult r =
      simulate(two_phase_workload(), MachineConfig::xeon_e2186g(), options);
  ASSERT_EQ(r.series.size(), kPmuEventCount);
  EXPECT_EQ(r.series_for(PmuEvent::CpuCycles).size(), 10u);
  // Sum of deltas equals the aggregate counter.
  double sum = 0.0;
  for (double v : r.series_for(PmuEvent::DtlbLoads)) sum += v;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(r.totals[PmuEvent::DtlbLoads]));
}

TEST(Simulator, SeriesCollectionCanBeDisabled) {
  SimOptions options;
  options.collect_series = false;
  const SimResult r =
      simulate(two_phase_workload(), MachineConfig::xeon_e2186g(), options);
  EXPECT_TRUE(r.series.empty());
  EXPECT_THROW(r.series_for(PmuEvent::CpuCycles), std::out_of_range);
}

TEST(Simulator, PhaseTransitionVisibleInSeries) {
  SimOptions options;
  options.sample_interval = 5'000;
  const SimResult r =
      simulate(two_phase_workload(), MachineConfig::xeon_e2186g(), options);
  // The chase phase (second half) stalls far more than the stream phase.
  const auto& stalls = r.series_for(PmuEvent::StallsMemAny);
  ASSERT_EQ(stalls.size(), 20u);
  double first_half = 0.0, second_half = 0.0;
  for (std::size_t i = 0; i < 10; ++i) first_half += stalls[i];
  for (std::size_t i = 10; i < 20; ++i) second_half += stalls[i];
  EXPECT_GT(second_half, 1.5 * first_half);
}

TEST(Simulator, DeterministicAndOrderIndependent) {
  const WorkloadSpec w = two_phase_workload();
  const auto machine = MachineConfig::xeon_e2186g();
  const SimResult a = simulate(w, machine);
  const SimResult b = simulate(w, machine);
  EXPECT_EQ(a.totals, b.totals);

  // Per-workload seeds hash the name: running inside a suite gives the
  // same result as running alone.
  SuiteSpec suite;
  suite.name = "order-test";
  WorkloadSpec other = w;
  other.name = "other";
  suite.workloads = {other, w};
  const auto results = simulate_suite(suite, machine);
  EXPECT_EQ(results[1].totals, a.totals);
}

TEST(Simulator, WorkCountersAgreeWithThePmuView) {
  const auto machine = MachineConfig::xeon_e2186g();
  const SimResult r = simulate(two_phase_workload(), machine);
  const auto& c = r.totals;
  // Every data access probes the L1 and the dTLB once.
  EXPECT_EQ(r.work.l1_accesses,
            c[PmuEvent::DtlbLoads] + c[PmuEvent::DtlbStores]);
  EXPECT_EQ(r.work.llc_accesses,
            c[PmuEvent::LlcLoads] + c[PmuEvent::LlcStores]);
  EXPECT_GE(r.work.l2_accesses, r.work.llc_accesses);
  EXPECT_LE(r.work.l2_accesses, r.work.l1_accesses);
  EXPECT_EQ(r.work.tlb_walks * machine.page_walk_cycles,
            c[PmuEvent::DtlbWalkPending]);
  // At least one draw per instruction (the op-class draw), and the count
  // is as deterministic as the counters.
  EXPECT_GE(r.work.rng_draws, r.instructions);
  EXPECT_EQ(simulate(two_phase_workload(), machine).work.rng_draws,
            r.work.rng_draws);
}

TEST(Simulator, SeedChangesResults) {
  const WorkloadSpec w = two_phase_workload();
  const auto machine = MachineConfig::xeon_e2186g();
  SimOptions a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(simulate(w, machine, a).totals, simulate(w, machine, b).totals);
}

TEST(Simulator, InvalidWorkloadRejected) {
  WorkloadSpec bad = two_phase_workload();
  bad.phases.clear();
  EXPECT_THROW(simulate(bad, MachineConfig::xeon_e2186g()),
               std::invalid_argument);
}

TEST(Simulator, PhaseWeightsApportionBudget) {
  // 3:1 weights: the heavy phase gets ~75% of instructions; verify via
  // stall asymmetry between quarters.
  WorkloadSpec w = two_phase_workload();
  w.phases[0].weight = 3.0;
  w.phases[1].weight = 1.0;
  SimOptions options;
  options.sample_interval = 5'000;
  const SimResult r = simulate(w, MachineConfig::xeon_e2186g(), options);
  const auto& stalls = r.series_for(PmuEvent::StallsMemAny);
  ASSERT_EQ(stalls.size(), 20u);
  // Samples 0..14 are the stream phase; 15..19 the chase.
  double stream_avg = 0.0, chase_avg = 0.0;
  for (std::size_t i = 0; i < 15; ++i) stream_avg += stalls[i] / 15.0;
  for (std::size_t i = 15; i < 20; ++i) chase_avg += stalls[i] / 5.0;
  EXPECT_GT(chase_avg, 1.5 * stream_avg);
}

}  // namespace
}  // namespace perspector::sim
