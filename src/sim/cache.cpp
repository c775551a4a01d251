#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace perspector::sim {

ExactDivider::ExactDivider(std::uint64_t d) {
  if (d < 2) throw std::invalid_argument("ExactDivider: divisor must be >= 2");
  // l = ceil(log2 d); magic = floor(2^64 * (2^l - d) / d) + 1 fits in 64
  // bits, and quotient() = (t + (n - t) / 2) >> (l - 1), t = mulhi(magic, n).
  const auto l = static_cast<std::uint32_t>(std::bit_width(d - 1));
  const unsigned __int128 two_l = static_cast<unsigned __int128>(1) << l;
  magic_ = static_cast<std::uint64_t>(((two_l - d) << 64) / d) + 1;
  shift_ = l - 1;
}

Cache::Cache(const CacheGeometry& geometry, std::uint64_t seed)
    : geometry_(geometry), ways_(geometry.ways), rng_(seed) {
  // Lines of at least 2 bytes keep every tag below 2^63, so no tag can
  // equal the empty-way sentinel.
  if (geometry.line_bytes < 2 || !std::has_single_bit(geometry.line_bytes)) {
    throw std::invalid_argument(
        "Cache: line_bytes must be a power of two >= 2");
  }
  if (geometry.ways == 0) {
    throw std::invalid_argument("Cache: ways must be > 0");
  }
  const std::uint64_t lines_total = geometry.size_bytes / geometry.line_bytes;
  if (lines_total == 0 || lines_total % geometry.ways != 0) {
    throw std::invalid_argument("Cache: size/line/ways geometry inconsistent");
  }
  sets_ = lines_total / geometry.ways;
  pow2_sets_ = std::has_single_bit(sets_);
  if (pow2_sets_) {
    set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
  } else {
    divider_ = ExactDivider(sets_);
  }
  line_shift_ = static_cast<std::uint64_t>(std::countr_zero(geometry.line_bytes));
  tags_.assign(lines_total, kEmptyTag);
  stamps_.assign(lines_total, 0);
  dirty_.assign(lines_total, 0);

  if (geometry.replacement == ReplacementPolicy::Plru) {
    if (!std::has_single_bit(static_cast<std::uint64_t>(geometry.ways))) {
      throw std::invalid_argument(
          "Cache: tree-PLRU requires a power-of-two way count");
    }
    plru_bits_.assign(sets_, 0);
  }
}

std::uint32_t Cache::pick_victim(const Slot& slot) {
  const std::uint64_t* tags = tags_.data() + slot.base;
  if (geometry_.replacement == ReplacementPolicy::Lru) {
    return oldest_way(stamps_.data() + slot.base, ways_);
  }
  // Empty ways first, regardless of policy.
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == kEmptyTag) return w;
  }
  if (geometry_.replacement == ReplacementPolicy::Random) {
    return static_cast<std::uint32_t>(rng_() % ways_);
  }
  // Tree-PLRU: walk from the root (node 1; children of n are 2n and 2n+1,
  // leaves map to ways). A node's bit records the side used last, so the
  // victim path goes the other way: bit 1 (right used) -> left.
  std::uint32_t node = 1;
  const auto levels = static_cast<std::uint32_t>(std::countr_zero(ways_));
  const std::uint32_t bits = plru_bits_[slot.set];
  for (std::uint32_t level = 0; level < levels; ++level) {
    const bool right_used = (bits >> node) & 1u;
    node = 2 * node + (right_used ? 0 : 1);
  }
  return node - ways_;
}

void Cache::touch_plru(std::size_t set, std::uint32_t way) {
  // Record, at every node on the leaf's path, which side was used.
  std::uint32_t leaf = way + ways_;
  std::uint32_t& bits = plru_bits_[set];
  while (leaf > 1) {
    const std::uint32_t parent = leaf / 2;
    if ((leaf & 1u) != 0) {
      bits |= (1u << parent);
    } else {
      bits &= ~(1u << parent);
    }
    leaf = parent;
  }
}

bool Cache::install(const Slot& slot, bool dirty) {
  const std::uint32_t way = pick_victim(slot);
  const std::size_t i = slot.base + way;
  const bool writeback = dirty_[i] != 0;  // empty ways are never dirty
  tags_[i] = slot.tag;
  dirty_[i] = dirty ? 1 : 0;
  touch_way(slot, way);
  return writeback;
}

bool Cache::miss(const Slot& slot, bool is_store) {
  if (is_store) {
    ++stats_.store_misses;
  } else {
    ++stats_.load_misses;
  }
  if (install(slot, is_store)) ++stats_.writebacks;
  return false;
}

bool Cache::prefetch_fill(std::uint64_t address) {
  const Slot slot = locate(address);
  if (find_way(slot) < ways_) return false;  // already present
  if (install(slot, /*dirty=*/false)) ++stats_.writebacks;
  ++stats_.prefetch_fills;
  return true;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(plru_bits_.begin(), plru_bits_.end(), 0);
}

}  // namespace perspector::sim
