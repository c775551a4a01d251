// Three-level cache hierarchy: L1D -> L2 -> LLC -> DRAM, with an optional
// L2 hardware prefetcher (next-line or stride).
//
// Each access walks down until it hits; the returned latency is what the
// core model charges as memory stall time. The LLC statistics feed the
// Table IV LLC-loads/stores/misses counters. Prefetched lines are installed
// into L2 and LLC only (never L1), mirroring typical hardware.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hpp"
#include "sim/machine_config.hpp"

namespace perspector::sim {

/// Which level serviced an access.
enum class HitLevel : std::uint8_t { L1, L2, Llc, Dram };

/// Outcome of one hierarchy access.
struct HierarchyAccess {
  HitLevel level = HitLevel::L1;
  std::uint32_t latency_cycles = 0;
  bool llc_accessed = false;  // the access reached the LLC
  bool llc_missed = false;    // ... and missed there
};

/// Prefetcher activity counters.
struct PrefetchStats {
  std::uint64_t issued = 0;  // prefetch addresses generated
};

/// L1D/L2/LLC chain with per-level statistics.
///
/// By default the hierarchy owns a private LLC; pass `shared_llc` to put
/// several hierarchies (cores) behind one LLC. `llc_stats()` always reports
/// *this core's* LLC traffic (what a per-core PMU counts), even when the
/// LLC itself is shared.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const MachineConfig& config,
                          Cache* shared_llc = nullptr);

  /// Performs a data access at `address`; fills all levels on the way back
  /// and triggers the configured prefetcher on L1 misses. The L1 hit is
  /// handled inline; everything past it is out of line.
  HierarchyAccess access(std::uint64_t address, AccessType type) {
    if (l1_.access(address, type)) {
      return {.level = HitLevel::L1, .latency_cycles = config_.l1_hit_cycles};
    }
    return access_past_l1(address, type);
  }

  const CacheStats& l1_stats() const { return l1_.stats(); }
  const CacheStats& l2_stats() const { return l2_.stats(); }
  /// This core's LLC demand traffic (per-core PMU view).
  const CacheStats& llc_stats() const { return llc_local_stats_; }
  const PrefetchStats& prefetch_stats() const { return prefetch_stats_; }
  bool llc_is_shared() const noexcept { return owned_llc_ == nullptr; }
  /// Random-policy victim draws of this core's private levels (L1, L2 and
  /// an owned LLC).
  std::uint64_t rng_draws() const noexcept {
    return l1_.rng_draws() + l2_.rng_draws() +
           (owned_llc_ ? owned_llc_->rng_draws() : 0);
  }

  void flush();
  void reset_stats();

 private:
  /// The L1-miss remainder of access().
  HierarchyAccess access_past_l1(std::uint64_t address, AccessType type);

  /// Runs the prefetch predictor for a demand miss at `address`; issues
  /// fills into L2/LLC for predicted lines.
  void maybe_prefetch(std::uint64_t address);

  MachineConfig config_;
  Cache l1_;
  Cache l2_;
  std::unique_ptr<Cache> owned_llc_;  // null when using a shared LLC
  Cache* llc_;                        // the LLC actually used
  CacheStats llc_local_stats_;        // this core's LLC demand traffic

  // Stride detector: a small direct-mapped table of (region -> last
  // address, last delta) entries; a repeated delta triggers a prefetch.
  struct StrideEntry {
    std::uint64_t last_address = 0;
    std::int64_t last_delta = 0;
    bool valid = false;
  };
  std::vector<StrideEntry> stride_table_;
  PrefetchStats prefetch_stats_;
};

}  // namespace perspector::sim
