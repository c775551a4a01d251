// In-order core timing model.
//
// Executes the abstract instruction stream of a workload phase against the
// TLB, cache hierarchy, branch predictor, and demand-paging substrates,
// accumulating all Table IV PMU counters. Timing is a simple additive model:
// a base issue cost per instruction plus memory stalls, page-walk and fault
// penalties, and branch-misprediction bubbles.
//
// Phases can run to completion (`run_phase`) or incrementally
// (`start_phase` + `step`), which is what the multicore simulator uses to
// interleave workloads on a shared LLC.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/address_space.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/cache_hierarchy.hpp"
#include "sim/machine_config.hpp"
#include "sim/pmu.hpp"
#include "sim/tlb.hpp"
#include "sim/workload.hpp"
#include "stats/rng.hpp"

namespace perspector::sim {

/// Work a simulation did, counted from the model's own state: it depends
/// only on the workload, machine and seed, never on the host, so benches
/// can gate on it exactly.
struct SimWork {
  std::uint64_t l1_accesses = 0;   // demand accesses per cache level
  std::uint64_t l2_accesses = 0;
  std::uint64_t llc_accesses = 0;
  std::uint64_t tlb_walks = 0;     // STLB misses
  std::uint64_t rng_draws = 0;     // engine outputs, all streams
};

/// One core running one workload; microarchitectural state (caches, TLB,
/// predictor, resident pages) persists across phases, as it would on real
/// hardware. Pass a `shared_llc` to model several cores behind one LLC
/// (private L1/L2/TLB per core).
class CoreModel {
 public:
  /// `address_offset` relocates this core's data regions so co-located
  /// cores use disjoint addresses (distinct processes); the OS background
  /// region stays shared (kernel structures are).
  CoreModel(const MachineConfig& config, std::uint64_t seed,
            Cache* shared_llc = nullptr, std::uint64_t address_offset = 0);

  /// Begins executing `phase`. Data accesses fall in a region derived from
  /// `phase_index` (distinct phases use distinct allocations). Any phase
  /// already in progress is abandoned.
  void start_phase(const PhaseSpec& phase, std::size_t phase_index);

  /// Executes `instructions` of the current phase (requires start_phase).
  /// When `sampler` is non-null it is fed counter snapshots at its
  /// interval.
  void step(std::uint64_t instructions, PmuSampler* sampler);

  /// start_phase + step in one call (single-core convenience).
  void run_phase(const PhaseSpec& phase, std::uint64_t instructions,
                 std::size_t phase_index, PmuSampler* sampler);

  /// Current counter snapshot (synchronized with all substrates).
  PmuCounterSet counters() const;

  std::uint64_t instructions_retired() const noexcept {
    return instructions_;
  }
  double cycles() const noexcept { return cycles_; }
  double ipc() const {
    return cycles_ <= 0.0 ? 0.0
                          : static_cast<double>(instructions_) / cycles_;
  }

  /// Work done so far. RNG draws cover every stream of this core: its
  /// own, the background and phase address streams (current and finished
  /// phases), and the private caches' Random-policy victims.
  SimWork work() const;

  const CacheHierarchy& caches() const noexcept { return caches_; }
  const Tlb& tlb() const noexcept { return tlb_; }
  const BranchPredictor& predictor() const noexcept { return *predictor_; }
  const AddressSpace& address_space() const noexcept { return pages_; }

 private:
  /// One data access through paging, TLB, and caches; returns stall cycles.
  std::uint64_t data_access(std::uint64_t addr, bool is_store);

  MachineConfig config_;
  stats::Rng rng_;
  CacheHierarchy caches_;
  Tlb tlb_;
  std::unique_ptr<BranchPredictor> predictor_;
  AddressSpace pages_;
  AccessPatternGen background_;  // OS/system noise stream

  // Current-phase execution state (set by start_phase).
  struct PhaseState {
    PhaseSpec spec;
    std::optional<AccessPatternGen> pattern;
    // Branch sites model loop-style branches: taken for (period-1)
    // iterations, then not-taken once — a pattern history-based predictors
    // can learn. `branch_randomness` injects unlearnable outcomes on top.
    std::vector<std::uint32_t> site_period;
    std::vector<std::uint32_t> site_counter;
    std::uint64_t branch_pc_base = 0;
    std::uint32_t branch_site = 0;
    double p_load = 0.0, p_store = 0.0, p_branch = 0.0, p_fp = 0.0;
  };
  std::optional<PhaseState> phase_;
  std::uint64_t address_offset_ = 0;
  std::uint64_t retired_pattern_draws_ = 0;  // streams of finished phases

  std::uint64_t instructions_ = 0;
  double cycles_ = 0.0;
  std::uint64_t page_faults_ = 0;
  std::uint64_t mem_stall_cycles_ = 0;
};

}  // namespace perspector::sim
