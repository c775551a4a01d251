#include "sim/tlb.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/cache.hpp"

namespace perspector::sim {

Tlb::Level::Level(const TlbGeometry& geometry) : ways(geometry.ways) {
  if (geometry.ways == 0 || geometry.entries == 0 ||
      geometry.entries % geometry.ways != 0) {
    throw std::invalid_argument("Tlb: entries must be a multiple of ways");
  }
  const std::uint64_t sets = geometry.entries / geometry.ways;
  if (!std::has_single_bit(sets)) {
    throw std::invalid_argument("Tlb: set count must be a power of two");
  }
  set_mask = sets - 1;
  pages.assign(geometry.entries, kEmptyPage);
  stamps.assign(geometry.entries, 0);
}

void Tlb::Level::fill(std::size_t base, std::uint64_t page) {
  const std::size_t victim = base + oldest_way(stamps.data() + base, ways);
  pages[victim] = page;
  stamps[victim] = clock;
}

void Tlb::Level::flush() {
  std::fill(pages.begin(), pages.end(), kEmptyPage);
  std::fill(stamps.begin(), stamps.end(), 0);
}

Tlb::Tlb(const TlbGeometry& l1, const TlbGeometry& stlb,
         std::uint64_t page_bytes, std::uint32_t stlb_hit_cycles,
         std::uint32_t page_walk_cycles)
    : l1_(l1),
      stlb_(stlb),
      page_shift_(0),
      stlb_hit_cycles_(stlb_hit_cycles),
      page_walk_cycles_(page_walk_cycles) {
  // Pages of at least 2 bytes keep page numbers below 2^63, clear of the
  // empty-way sentinel.
  if (page_bytes < 2 || !std::has_single_bit(page_bytes)) {
    throw std::invalid_argument("Tlb: page_bytes must be a power of two >= 2");
  }
  page_shift_ = static_cast<std::uint64_t>(std::countr_zero(page_bytes));
}

TlbAccess Tlb::miss_l1(std::uint64_t page, bool is_store) {
  if (is_store) {
    ++stats_.store_misses;
  } else {
    ++stats_.load_misses;
  }
  TlbAccess out;
  if (stlb_.access_and_fill(page)) {
    out.stlb_hit = true;
    out.latency_cycles = stlb_hit_cycles_;
    ++stats_.stlb_hits;
    return out;
  }
  ++stats_.page_walks;
  stats_.walk_pending_cycles += page_walk_cycles_;
  out.latency_cycles = page_walk_cycles_;
  return out;
}

void Tlb::flush() {
  l1_.flush();
  stlb_.flush();
}

}  // namespace perspector::sim
