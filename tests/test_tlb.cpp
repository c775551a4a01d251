#include "sim/tlb.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perspector::sim {
namespace {

Tlb make_tiny_tlb() {
  // L1: 4 entries / 2-way (2 sets); STLB: 16 entries / 4-way (4 sets).
  return Tlb({.entries = 4, .ways = 2}, {.entries = 16, .ways = 4}, 4096, 7,
             60);
}

TEST(Tlb, ValidatesGeometry) {
  EXPECT_THROW(Tlb({.entries = 5, .ways = 2}, {.entries = 16, .ways = 4},
                   4096, 7, 60),
               std::invalid_argument);
  EXPECT_THROW(Tlb({.entries = 4, .ways = 0}, {.entries = 16, .ways = 4},
                   4096, 7, 60),
               std::invalid_argument);
  EXPECT_THROW(Tlb({.entries = 4, .ways = 2}, {.entries = 16, .ways = 4},
                   4095, 7, 60),
               std::invalid_argument);
  EXPECT_THROW(Tlb({.entries = 4, .ways = 2}, {.entries = 16, .ways = 4},
                   1, 7, 60),
               std::invalid_argument);  // page numbers could hit the sentinel
  EXPECT_THROW(Tlb({.entries = 12, .ways = 2}, {.entries = 16, .ways = 4},
                   4096, 7, 60),
               std::invalid_argument);  // 6 sets not a power of two
}

TEST(Tlb, ColdMissWalksThenHits) {
  Tlb tlb = make_tiny_tlb();
  const auto first = tlb.access(0x1000, false);
  EXPECT_FALSE(first.l1_hit);
  EXPECT_FALSE(first.stlb_hit);
  EXPECT_EQ(first.latency_cycles, 60u);

  const auto second = tlb.access(0x1000, false);
  EXPECT_TRUE(second.l1_hit);
  EXPECT_EQ(second.latency_cycles, 0u);

  EXPECT_EQ(tlb.stats().loads, 2u);
  EXPECT_EQ(tlb.stats().load_misses, 1u);
  EXPECT_EQ(tlb.stats().page_walks, 1u);
  EXPECT_EQ(tlb.stats().walk_pending_cycles, 60u);
}

TEST(Tlb, SamePageDifferentOffsetsHit) {
  Tlb tlb = make_tiny_tlb();
  tlb.access(0x1000, false);
  EXPECT_TRUE(tlb.access(0x1FFF, false).l1_hit);
  EXPECT_FALSE(tlb.access(0x2000, false).l1_hit);  // next page
}

TEST(Tlb, StlbCatchesL1Evictions) {
  Tlb tlb = make_tiny_tlb();
  // Pages 0, 2, 4 map to L1 set 0 (2 sets); all fit in the STLB.
  tlb.access(0 << 12, false);
  tlb.access(2 << 12, false);
  tlb.access(4 << 12, false);  // evicts page 0 from L1
  const auto again = tlb.access(std::uint64_t{0} << 12, false);
  EXPECT_FALSE(again.l1_hit);
  EXPECT_TRUE(again.stlb_hit);
  EXPECT_EQ(again.latency_cycles, 7u);
  EXPECT_EQ(tlb.stats().stlb_hits, 1u);
}

TEST(Tlb, StoreStatsSeparate) {
  Tlb tlb = make_tiny_tlb();
  tlb.access(0x1000, true);
  EXPECT_EQ(tlb.stats().stores, 1u);
  EXPECT_EQ(tlb.stats().store_misses, 1u);
  EXPECT_EQ(tlb.stats().loads, 0u);
  EXPECT_EQ(tlb.stats().load_misses, 0u);
}

TEST(Tlb, WalkPendingAccumulates) {
  Tlb tlb = make_tiny_tlb();
  // 32 distinct pages overflow both levels: every access walks eventually.
  for (std::uint64_t p = 0; p < 32; ++p) {
    tlb.access(p << 12, false);
  }
  EXPECT_EQ(tlb.stats().page_walks, 32u);  // all cold
  EXPECT_EQ(tlb.stats().walk_pending_cycles, 32u * 60u);
}

TEST(Tlb, FlushClearsTranslationsKeepsStats) {
  Tlb tlb = make_tiny_tlb();
  tlb.access(0x1000, false);
  tlb.flush();
  EXPECT_FALSE(tlb.access(0x1000, false).l1_hit);
  EXPECT_EQ(tlb.stats().loads, 2u);
  tlb.reset_stats();
  EXPECT_EQ(tlb.stats().loads, 0u);
}

TEST(Tlb, WorkingSetWithinL1NeverMissesAfterWarmup) {
  Tlb tlb = make_tiny_tlb();
  // 4 pages that spread over both sets: pages 0,1,2,3.
  for (int warm = 0; warm < 2; ++warm) {
    for (std::uint64_t p = 0; p < 4; ++p) tlb.access(p << 12, false);
  }
  EXPECT_EQ(tlb.stats().load_misses, 4u);  // compulsory only
}

}  // namespace
}  // namespace perspector::sim
