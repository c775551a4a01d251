#include "core/event_group.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/pmu.hpp"

namespace perspector::core {
namespace {

TEST(EventGroup, AllMatchesEverything) {
  const EventGroup all = EventGroup::all();
  EXPECT_TRUE(all.is_all());
  EXPECT_TRUE(all.contains("anything"));
  const auto indices = all.indices_in({"a", "b", "c"});
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(EventGroup, LlcSelectsFourTableIvCounters) {
  const EventGroup llc = EventGroup::llc();
  const auto indices = llc.indices_in(sim::pmu_event_names());
  EXPECT_EQ(indices.size(), 4u);
  for (std::size_t i : indices) {
    EXPECT_NE(sim::pmu_event_names()[i].find("LLC"), std::string::npos);
  }
}

TEST(EventGroup, TlbSelectsFiveTableIvCounters) {
  const EventGroup tlb = EventGroup::tlb();
  EXPECT_EQ(tlb.indices_in(sim::pmu_event_names()).size(), 5u);
  EXPECT_TRUE(tlb.contains("dtlb_misses.walk_pending"));
  EXPECT_FALSE(tlb.contains("LLC-loads"));
}

TEST(EventGroup, BranchGroup) {
  const EventGroup branch = EventGroup::branch();
  EXPECT_EQ(branch.indices_in(sim::pmu_event_names()).size(), 2u);
  EXPECT_EQ(branch.name(), "branch");
}

TEST(EventGroup, CustomGroup) {
  const EventGroup g = EventGroup::custom("mine", {"x", "z"});
  EXPECT_FALSE(g.is_all());
  EXPECT_EQ(g.name(), "mine");
  const auto indices = g.indices_in({"x", "y", "z"});
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 2}));
}

TEST(EventGroup, CustomRejectsEmptyList) {
  EXPECT_THROW(EventGroup::custom("empty", {}), std::invalid_argument);
}

TEST(EventGroup, NoMatchThrows) {
  const EventGroup g = EventGroup::custom("missing", {"not-there"});
  EXPECT_THROW(g.indices_in({"a", "b"}), std::invalid_argument);
}

TEST(EventGroup, IndicesPreserveAvailableOrder) {
  const EventGroup g = EventGroup::custom("two", {"z", "a"});
  // Selection order follows `available`, not the group definition.
  const auto indices = g.indices_in({"a", "z"});
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1}));
}

TEST(EventGroup, LooksUpPresetsByName) {
  for (const char* name : {"all", "llc", "tlb", "branch"}) {
    const auto group = EventGroup::find(name);
    ASSERT_TRUE(group.has_value()) << name;
    EXPECT_EQ(group->name(), name);
    EXPECT_EQ(EventGroup::by_name(name).name(), name);
  }
  EXPECT_FALSE(EventGroup::find("LLC").has_value());
  EXPECT_FALSE(EventGroup::find("").has_value());
  // The caller picks the error type; the message is the same for all.
  try {
    EventGroup::by_name<std::runtime_error>("bogus");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unknown event group 'bogus'");
  }
  EXPECT_THROW(EventGroup::by_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace perspector::core
