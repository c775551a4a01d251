// Set-associative cache with selectable replacement policy (true LRU,
// random, tree-PLRU), write-allocate / write-back semantics, and a
// prefetch-fill port. One instance models one level (L1D, L2, or LLC).
//
// State is stored structure-of-arrays, row-major by set: one tag array
// (an empty way holds the kEmptyTag sentinel, which no real tag equals),
// one LRU-stamp array and one dirty-flag array. A lookup therefore scans
// `ways` contiguous 8-byte tags and nothing else. The hit path is inline
// so the hierarchy's L1 probe compiles into its caller.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"
#include "stats/rng.hpp"

namespace perspector::sim {

/// Kind of memory access as seen by the cache.
enum class AccessType : std::uint8_t { Load, Store };

/// Per-level cache statistics. Demand and prefetch traffic are separated:
/// prefetch fills never count as demand accesses or misses.
struct CacheStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t writebacks = 0;      // dirty evictions
  std::uint64_t prefetch_fills = 0;  // lines installed by the prefetcher

  std::uint64_t accesses() const { return loads + stores; }
  std::uint64_t misses() const { return load_misses + store_misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(a);
  }
};

/// Exact n / d for a fixed divisor d >= 2 with one 64x64->128 multiply
/// (Granlund & Montgomery's round-up method), valid for every 64-bit n;
/// the remainder is then n - quotient * d.
class ExactDivider {
 public:
  explicit ExactDivider(std::uint64_t d);

  std::uint64_t quotient(std::uint64_t n) const {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(magic_) * n) >> 64);
    return (t + ((n - t) >> 1)) >> shift_;
  }

 private:
  std::uint64_t magic_;
  std::uint32_t shift_;
};

/// Index of the first smallest of `ways` LRU stamps: with empty ways at
/// stamp 0 and unique later stamps for used ways, the first empty way if
/// any, else the least recently used. Select-based, so it compiles to
/// conditional moves rather than a data-dependent branch per way.
inline std::uint32_t oldest_way(const std::uint64_t* stamps,
                                std::uint32_t ways) {
  std::uint32_t victim = 0;
  std::uint64_t oldest = stamps[0];
  for (std::uint32_t w = 1; w < ways; ++w) {
    const bool older = stamps[w] < oldest;
    oldest = older ? stamps[w] : oldest;
    victim = older ? w : victim;
  }
  return victim;
}

/// One set-associative cache level.
///
/// Addresses are byte addresses; the cache works on line granularity.
/// Geometry must be consistent (size divisible by line*ways). Power-of-two
/// set counts index with a mask; other counts (e.g. a 12 MiB LLC) index
/// modulo the set count, as sliced LLCs effectively do. Tree-PLRU requires
/// a power-of-two way count.
class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry, std::uint64_t seed = 0xC0FFEE);

  /// Performs a demand access. Returns true on hit. On miss the line is
  /// filled (write-allocate); a dirty eviction increments `writebacks`.
  bool access(std::uint64_t address, AccessType type) {
    const Slot slot = locate(address);
    const bool is_store = type == AccessType::Store;
    if (is_store) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
    }
    const std::uint32_t way = find_way(slot);
    if (way == ways_) return miss(slot, is_store);
    touch_way(slot, way);
    if (is_store) dirty_[slot.base + way] = 1;
    return true;
  }

  /// Installs the line containing `address` without touching demand
  /// statistics (the prefetcher's fill port). Counted in `prefetch_fills`
  /// when the line was not already present. Returns true if a fill
  /// happened.
  bool prefetch_fill(std::uint64_t address);

  /// Probes without updating state or statistics (diagnostics).
  bool contains(std::uint64_t address) const {
    return find_way(locate(address)) < ways_;
  }

  /// Invalidates all lines and leaves statistics untouched.
  void flush();

  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Victim draws made by the Random policy's engine.
  std::uint64_t rng_draws() const noexcept { return rng_.draws(); }

  std::uint64_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return ways_; }
  std::uint64_t line_bytes() const noexcept { return geometry_.line_bytes; }
  ReplacementPolicy replacement() const noexcept {
    return geometry_.replacement;
  }

 private:
  static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};

  /// Where a line lives: its set, the set's first array index, its tag.
  struct Slot {
    std::size_t set;
    std::size_t base;
    std::uint64_t tag;
  };

  Slot locate(std::uint64_t address) const {
    const std::uint64_t line = address >> line_shift_;
    std::uint64_t set;
    std::uint64_t tag;
    if (pow2_sets_) {
      set = line & (sets_ - 1);
      tag = line >> set_shift_;
    } else {
      tag = divider_.quotient(line);
      set = line - tag * sets_;
    }
    const auto index = static_cast<std::size_t>(set);
    return {index, index * ways_, tag};
  }

  /// The way holding the slot's tag, or ways() when absent.
  std::uint32_t find_way(const Slot& slot) const {
    const std::uint64_t* tags = tags_.data() + slot.base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags[w] == slot.tag) return w;
    }
    return ways_;
  }

  /// Policy bookkeeping on a touch (hit or fill) of `way`.
  void touch_way(const Slot& slot, std::uint32_t way) {
    stamps_[slot.base + way] = ++lru_clock_;
    if (!plru_bits_.empty()) touch_plru(slot.set, way);
  }

  /// Demand miss: counts it and fills the line.
  bool miss(const Slot& slot, bool is_store);
  /// Picks a victim way in the slot's set per the replacement policy.
  std::uint32_t pick_victim(const Slot& slot);
  void touch_plru(std::size_t set, std::uint32_t way);
  /// Installs the slot's tag; returns the victim's dirtiness.
  bool install(const Slot& slot, bool dirty);

  CacheGeometry geometry_;
  std::uint32_t ways_ = 0;
  std::uint64_t sets_ = 0;
  bool pow2_sets_ = true;
  std::uint32_t set_shift_ = 0;   // log2(sets), valid when pow2_sets_
  std::uint64_t line_shift_ = 0;  // log2(line_bytes)
  ExactDivider divider_{2};       // by sets_ when !pow2_sets_
  std::uint64_t lru_clock_ = 0;
  std::vector<std::uint64_t> tags_;    // sets_ * ways_; kEmptyTag = empty
  std::vector<std::uint64_t> stamps_;  // LRU recency; 0 = never touched
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint32_t> plru_bits_;  // per-set PLRU tree state
  stats::Mt19937_64 rng_;                 // Random policy victim draws
  CacheStats stats_;
};

}  // namespace perspector::sim
