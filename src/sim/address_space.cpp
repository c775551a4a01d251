#include "sim/address_space.hpp"

#include <bit>
#include <stdexcept>

namespace perspector::sim {

AddressSpace::AddressSpace(std::uint64_t page_bytes) {
  // Pages of at least 2 bytes keep page numbers below 2^63, clear of the
  // empty-slot sentinel.
  if (page_bytes < 2 || !std::has_single_bit(page_bytes)) {
    throw std::invalid_argument(
        "AddressSpace: page_bytes must be a power of two >= 2");
  }
  page_shift_ = static_cast<std::uint64_t>(std::countr_zero(page_bytes));
  reset();
}

bool AddressSpace::resident(std::uint64_t address) const {
  const std::uint64_t page = address >> page_shift_;
  for (std::size_t i = slot_of(page);; i = (i + 1) & mask_) {
    if (slots_[i] == page) return true;
    if (slots_[i] == kEmpty) return false;
  }
}

void AddressSpace::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmpty);
  mask_ = slots_.size() - 1;
  --hash_shift_;
  for (const std::uint64_t page : old) {
    if (page == kEmpty) continue;
    std::size_t i = slot_of(page);
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = page;
  }
}

void AddressSpace::reset() {
  slots_.assign(kInitialSlots, kEmpty);
  mask_ = kInitialSlots - 1;
  hash_shift_ =
      64 - static_cast<std::uint32_t>(std::countr_zero(kInitialSlots));
  count_ = 0;
  stats_ = PageStats{};
}

}  // namespace perspector::sim
