// Two-level data TLB with page-walk cost accounting.
//
// Produces the Table IV TLB counters: dTLB-loads/stores, dTLB-load/store
// misses (L1 dTLB misses), and dtlb_*_misses.walk_pending (cycles spent
// walking the page table, i.e. only after an STLB miss).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"

namespace perspector::sim {

/// TLB-side statistics, split by access direction.
struct TlbStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_misses = 0;   // L1 dTLB misses on loads
  std::uint64_t store_misses = 0;  // L1 dTLB misses on stores
  std::uint64_t stlb_hits = 0;     // L1 misses served by the STLB
  std::uint64_t page_walks = 0;    // STLB misses (full walks)
  std::uint64_t walk_pending_cycles = 0;  // total cycles spent in walks
};

/// Result of one TLB translation.
struct TlbAccess {
  bool l1_hit = false;
  bool stlb_hit = false;            // meaningful only when !l1_hit
  std::uint32_t latency_cycles = 0; // 0 on an L1 hit
};

/// Two-level (L1 dTLB + unified STLB) translation structure, true LRU.
class Tlb {
 public:
  Tlb(const TlbGeometry& l1, const TlbGeometry& stlb,
      std::uint64_t page_bytes, std::uint32_t stlb_hit_cycles,
      std::uint32_t page_walk_cycles);

  /// Translates a byte address; `is_store` routes statistics. The L1
  /// dTLB hit is handled inline.
  TlbAccess access(std::uint64_t address, bool is_store) {
    const std::uint64_t page = address >> page_shift_;
    if (is_store) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
    }
    if (l1_.access_and_fill(page)) return {.l1_hit = true};
    return miss_l1(page, is_store);
  }

  const TlbStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = TlbStats{}; }
  void flush();

 private:
  // A single set-associative translation array over page numbers, stored
  // structure-of-arrays: page tags (kEmptyPage = empty way) and LRU stamps
  // (0 = never used), row-major by set.
  struct Level {
    static constexpr std::uint64_t kEmptyPage = ~std::uint64_t{0};

    explicit Level(const TlbGeometry& geometry);
    /// True on hit; fills the LRU way on a miss.
    bool access_and_fill(std::uint64_t page) {
      const std::size_t base = static_cast<std::size_t>(page & set_mask) * ways;
      ++clock;
      const std::uint64_t* tags = pages.data() + base;
      for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == page) {
          stamps[base + w] = clock;
          return true;
        }
      }
      fill(base, page);
      return false;
    }
    /// Replaces the set's first empty way, else its least recently used.
    void fill(std::size_t base, std::uint64_t page);
    void flush();

    std::uint32_t ways;
    std::uint64_t set_mask;
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> pages;
    std::vector<std::uint64_t> stamps;
  };

  /// The L1-dTLB-miss remainder of access().
  TlbAccess miss_l1(std::uint64_t page, bool is_store);

  Level l1_;
  Level stlb_;
  std::uint64_t page_shift_;
  std::uint32_t stlb_hit_cycles_;
  std::uint32_t page_walk_cycles_;
  TlbStats stats_;
};

}  // namespace perspector::sim
