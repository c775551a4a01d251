#include "sim/address_space.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perspector::sim {
namespace {

TEST(AddressSpace, ValidatesPageSize) {
  EXPECT_THROW(AddressSpace(0), std::invalid_argument);
  EXPECT_THROW(AddressSpace(4095), std::invalid_argument);
  // One-byte pages would let a page number reach the empty-slot sentinel.
  EXPECT_THROW(AddressSpace(1), std::invalid_argument);
  EXPECT_NO_THROW(AddressSpace(2));
  EXPECT_NO_THROW(AddressSpace(4096));
}

TEST(AddressSpace, FirstTouchFaults) {
  AddressSpace as(4096);
  EXPECT_TRUE(as.touch(0x1000));
  EXPECT_FALSE(as.touch(0x1000));
  EXPECT_FALSE(as.touch(0x1FFF));  // same page
  EXPECT_TRUE(as.touch(0x2000));   // next page
  EXPECT_EQ(as.stats().faults, 2u);
  EXPECT_EQ(as.stats().resident_pages, 2u);
}

TEST(AddressSpace, ResidentQuery) {
  AddressSpace as(4096);
  EXPECT_FALSE(as.resident(0x5000));
  as.touch(0x5000);
  EXPECT_TRUE(as.resident(0x5000));
  EXPECT_TRUE(as.resident(0x5FFF));
  EXPECT_FALSE(as.resident(0x6000));
}

TEST(AddressSpace, ResetForgetsEverything) {
  AddressSpace as(4096);
  as.touch(0x1000);
  as.reset();
  EXPECT_FALSE(as.resident(0x1000));
  EXPECT_EQ(as.stats().faults, 0u);
  EXPECT_TRUE(as.touch(0x1000));
}

TEST(AddressSpace, FaultCountMatchesDistinctPages) {
  AddressSpace as(4096);
  for (std::uint64_t a = 0; a < 64 * 4096; a += 512) {
    as.touch(a);
  }
  EXPECT_EQ(as.stats().faults, 64u);
}

TEST(AddressSpace, LargePagesCoarserFaulting) {
  AddressSpace small(4096);
  AddressSpace huge(2 * 1024 * 1024);
  for (std::uint64_t a = 0; a < 4 * 1024 * 1024; a += 4096) {
    small.touch(a);
    huge.touch(a);
  }
  EXPECT_EQ(small.stats().faults, 1024u);
  EXPECT_EQ(huge.stats().faults, 2u);
}

}  // namespace
}  // namespace perspector::sim
