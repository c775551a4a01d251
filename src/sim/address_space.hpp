// Demand-paged virtual address space: tracks first-touch pages so the core
// model can charge minor page faults (Table IV page-faults counter).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"

namespace perspector::sim {

/// Page-fault statistics.
struct PageStats {
  std::uint64_t faults = 0;        // first touches (minor faults)
  std::uint64_t resident_pages = 0;
};

/// Demand-paging model over a flat virtual address space.
///
/// The resident set is a flat open-addressed table of page numbers with
/// linear probing (the shape of ingest::NameIndex): no node per page, and
/// no iteration order that could reach a counter.
class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t page_bytes);

  /// Touches the page containing `address`; returns true when this is the
  /// first touch (a page fault).
  bool touch(std::uint64_t address) {
    const std::uint64_t page = address >> page_shift_;
    std::size_t i = slot_of(page);
    for (;;) {
      const std::uint64_t held = slots_[i];
      if (held == page) return false;
      if (held == kEmpty) break;
      i = (i + 1) & mask_;
    }
    slots_[i] = page;
    ++stats_.faults;
    stats_.resident_pages = ++count_;
    if (count_ * 2 > slots_.size()) grow();
    return true;
  }

  /// True when the page containing `address` has been touched before.
  bool resident(std::uint64_t address) const;

  const PageStats& stats() const noexcept { return stats_; }
  void reset();

 private:
  // Page numbers are below 2^63 (pages are at least 2 bytes).
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 1024;

  /// Home slot: Fibonacci hashing spreads runs of consecutive pages.
  std::size_t slot_of(std::uint64_t page) const {
    return static_cast<std::size_t>((page * 0x9e3779b97f4a7c15ull) >>
                                    hash_shift_);
  }
  void grow();

  std::uint64_t page_shift_;
  std::vector<std::uint64_t> slots_;  // power-of-two size, load <= 1/2
  std::size_t mask_ = 0;
  std::uint32_t hash_shift_ = 0;      // 64 - log2(slots_.size())
  std::size_t count_ = 0;
  PageStats stats_;
};

}  // namespace perspector::sim
