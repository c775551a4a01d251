#include "sim/cache_hierarchy.hpp"

#include <stdexcept>

namespace perspector::sim {

CacheHierarchy::CacheHierarchy(const MachineConfig& config, Cache* shared_llc)
    : config_(config), l1_(config.l1d), l2_(config.l2) {
  if (shared_llc != nullptr) {
    llc_ = shared_llc;
  } else {
    owned_llc_ = std::make_unique<Cache>(config.llc);
    llc_ = owned_llc_.get();
  }
  if (config.prefetcher == MachineConfig::Prefetcher::Stride) {
    if (config.prefetch_table_entries == 0) {
      throw std::invalid_argument(
          "CacheHierarchy: prefetch_table_entries must be > 0");
    }
    stride_table_.resize(config.prefetch_table_entries);
  }
}

void CacheHierarchy::maybe_prefetch(std::uint64_t address) {
  const std::uint64_t line = config_.l1d.line_bytes;
  switch (config_.prefetcher) {
    case MachineConfig::Prefetcher::None:
      return;
    case MachineConfig::Prefetcher::NextLine: {
      const std::uint64_t target = address + line;
      ++prefetch_stats_.issued;
      l2_.prefetch_fill(target);
      llc_->prefetch_fill(target);
      return;
    }
    case MachineConfig::Prefetcher::Stride: {
      // 4 KiB regions share a detector entry (page-local streams).
      const std::size_t idx = static_cast<std::size_t>(
          (address >> 12) % stride_table_.size());
      StrideEntry& entry = stride_table_[idx];
      if (entry.valid) {
        const std::int64_t delta =
            static_cast<std::int64_t>(address) -
            static_cast<std::int64_t>(entry.last_address);
        if (delta != 0 && delta == entry.last_delta) {
          const std::uint64_t target =
              static_cast<std::uint64_t>(static_cast<std::int64_t>(address) +
                                         delta);
          ++prefetch_stats_.issued;
          l2_.prefetch_fill(target);
          llc_->prefetch_fill(target);
        }
        entry.last_delta = delta;
      }
      entry.last_address = address;
      entry.valid = true;
      return;
    }
  }
}

HierarchyAccess CacheHierarchy::access_past_l1(std::uint64_t address,
                                               AccessType type) {
  HierarchyAccess out;
  // L1 miss: consult the prefetcher (trained on the demand miss stream).
  maybe_prefetch(address);

  if (l2_.access(address, type)) {
    out.level = HitLevel::L2;
    out.latency_cycles = config_.l2_hit_cycles;
    return out;
  }

  out.llc_accessed = true;
  const bool is_store = type == AccessType::Store;
  const bool llc_hit = llc_->access(address, type);
  // Per-core LLC accounting (the PMU view), independent of LLC sharing.
  if (is_store) {
    ++llc_local_stats_.stores;
    if (!llc_hit) ++llc_local_stats_.store_misses;
  } else {
    ++llc_local_stats_.loads;
    if (!llc_hit) ++llc_local_stats_.load_misses;
  }

  if (llc_hit) {
    out.level = HitLevel::Llc;
    out.latency_cycles = config_.llc_hit_cycles;
    return out;
  }
  out.level = HitLevel::Dram;
  out.llc_missed = true;
  out.latency_cycles = config_.dram_cycles;
  return out;
}

void CacheHierarchy::flush() {
  l1_.flush();
  l2_.flush();
  // Only flush the LLC we own; a shared LLC holds other cores' state.
  if (owned_llc_) owned_llc_->flush();
  for (auto& entry : stride_table_) entry = StrideEntry{};
}

void CacheHierarchy::reset_stats() {
  l1_.reset_stats();
  l2_.reset_stats();
  if (owned_llc_) owned_llc_->reset_stats();
  llc_local_stats_ = CacheStats{};
  prefetch_stats_ = PrefetchStats{};
}

}  // namespace perspector::sim
