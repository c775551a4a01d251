#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/rng.hpp"

namespace perspector::sim {
namespace {

CacheGeometry tiny_geometry() {
  // 2 sets x 2 ways x 64B lines = 256 B.
  return {.size_bytes = 256, .line_bytes = 64, .ways = 2};
}

TEST(Cache, ValidatesGeometry) {
  EXPECT_THROW(Cache({.size_bytes = 256, .line_bytes = 48, .ways = 2}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 256, .line_bytes = 64, .ways = 0}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 100, .line_bytes = 64, .ways = 3}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 32, .line_bytes = 64, .ways = 1}),
               std::invalid_argument);
  // One-byte lines with one set would make a tag of all ones possible,
  // which is the empty-way sentinel.
  EXPECT_THROW(Cache({.size_bytes = 4, .line_bytes = 1, .ways = 4}),
               std::invalid_argument);
}

TEST(Cache, NonPowerOfTwoSetCountAllowed) {
  // 12 sets (e.g. a 12 MiB LLC slice) uses modulo indexing.
  Cache c({.size_bytes = 12 * 64 * 4, .line_bytes = 64, .ways = 4});
  EXPECT_EQ(c.sets(), 12u);
  EXPECT_FALSE(c.access(0, AccessType::Load));
  EXPECT_TRUE(c.access(0, AccessType::Load));
  // Lines 12 sets apart collide in the same set.
  EXPECT_FALSE(c.access(12 * 64, AccessType::Load));
  EXPECT_TRUE(c.access(12 * 64, AccessType::Load));
  EXPECT_TRUE(c.access(0, AccessType::Load));  // still resident (2 of 4 ways)
}

TEST(Cache, ColdMissThenHit) {
  Cache c(tiny_geometry());
  EXPECT_FALSE(c.access(0x1000, AccessType::Load));
  EXPECT_TRUE(c.access(0x1000, AccessType::Load));
  EXPECT_TRUE(c.access(0x1004, AccessType::Load));  // same line
  EXPECT_EQ(c.stats().loads, 3u);
  EXPECT_EQ(c.stats().load_misses, 1u);
}

TEST(Cache, LineGranularity) {
  Cache c(tiny_geometry());
  c.access(0, AccessType::Load);
  EXPECT_TRUE(c.access(63, AccessType::Load));    // same line
  EXPECT_FALSE(c.access(64, AccessType::Load));   // next line (other set)
}

TEST(Cache, LruEviction) {
  Cache c(tiny_geometry());  // 2 sets, 2 ways; set = (addr/64) % 2
  // Three lines mapping to set 0: line addresses 0, 2, 4 (x64 bytes).
  c.access(0 * 64, AccessType::Load);
  c.access(2 * 64, AccessType::Load);
  c.access(0 * 64, AccessType::Load);   // touch 0 -> LRU is line 2
  c.access(4 * 64, AccessType::Load);   // evicts line 2
  EXPECT_TRUE(c.contains(0 * 64));
  EXPECT_FALSE(c.contains(2 * 64));
  EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, StoreStatsAndWriteAllocate) {
  Cache c(tiny_geometry());
  EXPECT_FALSE(c.access(0x40, AccessType::Store));  // miss, allocates
  EXPECT_TRUE(c.access(0x40, AccessType::Load));    // now present
  EXPECT_EQ(c.stats().stores, 1u);
  EXPECT_EQ(c.stats().store_misses, 1u);
  EXPECT_EQ(c.stats().loads, 1u);
  EXPECT_EQ(c.stats().load_misses, 0u);
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  Cache c(tiny_geometry());
  c.access(0 * 64, AccessType::Store);  // dirty line in set 0
  c.access(2 * 64, AccessType::Load);
  c.access(4 * 64, AccessType::Load);   // evicts the dirty line (LRU)
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(tiny_geometry());
  c.access(0 * 64, AccessType::Load);
  c.access(2 * 64, AccessType::Load);
  c.access(4 * 64, AccessType::Load);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, ContainsDoesNotPerturbState) {
  Cache c(tiny_geometry());
  c.access(0, AccessType::Load);
  const auto before = c.stats().accesses();
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(0x10000));
  EXPECT_EQ(c.stats().accesses(), before);
}

TEST(Cache, FlushInvalidatesKeepsStats) {
  Cache c(tiny_geometry());
  c.access(0, AccessType::Load);
  c.flush();
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.stats().loads, 1u);
  c.reset_stats();
  EXPECT_EQ(c.stats().loads, 0u);
}

TEST(Cache, MissRate) {
  Cache c(tiny_geometry());
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.0);
  c.access(0, AccessType::Load);
  c.access(0, AccessType::Load);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 4});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t addr = 0; addr < 2048; addr += 64) {
      c.access(addr, AccessType::Load);
    }
  }
  // 32 compulsory misses, everything else hits.
  EXPECT_EQ(c.stats().load_misses, 32u);
}

TEST(Cache, StreamLargerThanCacheAlwaysMisses) {
  Cache c({.size_bytes = 1024, .line_bytes = 64, .ways = 2});
  // Stream 64 KiB twice: every line access misses both times (capacity).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
      c.access(addr, AccessType::Load);
    }
  }
  EXPECT_EQ(c.stats().load_misses, c.stats().loads);
}

TEST(Cache, PrefetchFillInstallsWithoutDemandStats) {
  Cache c(tiny_geometry());
  EXPECT_TRUE(c.prefetch_fill(0x1000));
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_EQ(c.stats().misses(), 0u);
  // The prefetched line now hits on demand.
  EXPECT_TRUE(c.access(0x1000, AccessType::Load));
  // Re-prefetching a resident line is a no-op.
  EXPECT_FALSE(c.prefetch_fill(0x1000));
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
}

TEST(Cache, PrefetchEvictionOfDirtyLineWritesBack) {
  Cache c(tiny_geometry());  // 2 sets x 2 ways
  c.access(0 * 64, AccessType::Store);  // dirty in set 0
  c.access(2 * 64, AccessType::Load);   // set 0 full
  EXPECT_TRUE(c.prefetch_fill(4 * 64)); // evicts LRU (the dirty line)
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, RandomPolicyStillCachesWorkingSets) {
  CacheGeometry g = tiny_geometry();
  g.replacement = ReplacementPolicy::Random;
  Cache c(g);
  // A working set matching capacity: after warmup, hit rate is high even
  // if random replacement occasionally evicts the wrong line.
  for (int pass = 0; pass < 8; ++pass) {
    for (std::uint64_t addr = 0; addr < 256; addr += 64) {
      c.access(addr, AccessType::Load);
    }
  }
  EXPECT_LT(c.stats().miss_rate(), 0.5);
  EXPECT_EQ(c.replacement(), ReplacementPolicy::Random);
}

TEST(Cache, PlruRequiresPow2Ways) {
  CacheGeometry g{.size_bytes = 192, .line_bytes = 64, .ways = 3,
                  .replacement = ReplacementPolicy::Plru};
  EXPECT_THROW(Cache{g}, std::invalid_argument);
}

TEST(Cache, PlruBehavesLikeLruOnSimplePatterns) {
  CacheGeometry g = tiny_geometry();
  g.replacement = ReplacementPolicy::Plru;
  Cache c(g);  // 2 sets x 2 ways; with 2 ways PLRU == LRU exactly
  c.access(0 * 64, AccessType::Load);
  c.access(2 * 64, AccessType::Load);
  c.access(0 * 64, AccessType::Load);  // LRU/PLRU victim is line 2
  c.access(4 * 64, AccessType::Load);
  EXPECT_TRUE(c.contains(0 * 64));
  EXPECT_FALSE(c.contains(2 * 64));
}

TEST(Cache, PlruFourWaysKeepsHotLines) {
  Cache c({.size_bytes = 4 * 64, .line_bytes = 64, .ways = 4,
           .replacement = ReplacementPolicy::Plru});
  // One set of 4 ways; touch A,B,C,D then re-touch A; filling E must not
  // evict A (it was just used).
  c.access(0 * 64, AccessType::Load);   // A
  c.access(1 * 64, AccessType::Load);   // B
  c.access(2 * 64, AccessType::Load);   // C
  c.access(3 * 64, AccessType::Load);   // D
  c.access(0 * 64, AccessType::Load);   // A again
  c.access(4 * 64, AccessType::Load);   // E: evicts some cold way
  EXPECT_TRUE(c.contains(0 * 64));
  EXPECT_EQ(c.stats().load_misses, 5u);
}

TEST(Cache, PolicyNames) {
  EXPECT_STREQ(to_string(ReplacementPolicy::Lru), "lru");
  EXPECT_STREQ(to_string(ReplacementPolicy::Random), "random");
  EXPECT_STREQ(to_string(ReplacementPolicy::Plru), "plru");
}

// Property sweep: for every policy, a warm L1-resident working set misses
// only compulsorily, and miss counters never exceed access counters.
class PolicyProperty : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(PolicyProperty, WarmResidentSetOnlyCompulsoryMisses) {
  CacheGeometry g{.size_bytes = 4096, .line_bytes = 64, .ways = 4,
                  .replacement = GetParam()};
  Cache c(g);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t addr = 0; addr < 2048; addr += 64) {
      c.access(addr, AccessType::Load);
    }
  }
  // Half-capacity working set: LRU/PLRU are exact; random may rarely evict
  // a useful line, so allow slack.
  EXPECT_LE(c.stats().load_misses, 32u + 16u);
  EXPECT_LE(c.stats().misses(), c.stats().accesses());
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyProperty,
                         ::testing::Values(ReplacementPolicy::Lru,
                                           ReplacementPolicy::Random,
                                           ReplacementPolicy::Plru));

// Property sweep over cache geometries: structural invariants hold for any
// consistent size/ways combination, power-of-two sets or not.
class GeometryProperty
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint32_t>> {
};

TEST_P(GeometryProperty, StructuralInvariants) {
  const auto [size, ways] = GetParam();
  Cache c({.size_bytes = size, .line_bytes = 64, .ways = ways});
  EXPECT_EQ(c.sets() * ways * 64, size);

  // Mixed access stream: stats must stay consistent throughout.
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::uint64_t addr = (i * 97) % (4 * size);
    c.access(addr, i % 3 == 0 ? AccessType::Store : AccessType::Load);
    if (i % 16 == 0) c.prefetch_fill(addr + 4096);
  }
  EXPECT_EQ(c.stats().accesses(), 3000u);
  EXPECT_LE(c.stats().misses(), c.stats().accesses());
  EXPECT_LE(c.stats().miss_rate(), 1.0);

  // A line just accessed must be resident (no policy evicts the MRU line).
  c.access(0, AccessType::Load);
  EXPECT_TRUE(c.contains(0));

  // A working set within capacity eventually stops missing.
  c.flush();
  c.reset_stats();
  const std::uint64_t resident_lines = size / 64 / 2;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t line = 0; line < resident_lines; ++line) {
      c.access(line * 64, AccessType::Load);
    }
  }
  EXPECT_EQ(c.stats().load_misses, resident_lines);  // compulsory only (LRU)
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometryProperty,
    ::testing::Values(std::pair<std::uint64_t, std::uint32_t>{1024, 1},
                      std::pair<std::uint64_t, std::uint32_t>{4096, 4},
                      std::pair<std::uint64_t, std::uint32_t>{32 * 1024, 8},
                      std::pair<std::uint64_t, std::uint32_t>{12 * 1024, 4},
                      std::pair<std::uint64_t, std::uint32_t>{192 * 1024, 3},
                      std::pair<std::uint64_t, std::uint32_t>{
                          12 * 1024 * 1024, 16}));

TEST(ExactDivider, MatchesHardwareDivision) {
  // Set counts of real and test geometries, plus divisors at the edges of
  // the method: 3 (smallest non-power-of-two), huge odd values, and
  // powers of two (which the cache indexes with a mask instead).
  const std::uint64_t divisors[] = {2,    3,     5,          7,      12,
                                    192,  12288, 20480,      1000003,
                                    1ull << 40, (1ull << 63) + 1,
                                    ~std::uint64_t{0}};
  stats::Rng rng(99);
  for (std::uint64_t d : divisors) {
    const ExactDivider div(d);
    const std::uint64_t edges[] = {0, 1, d - 1, d, d + 1, 2 * d - 1,
                                   ~std::uint64_t{0}, ~std::uint64_t{0} - 1,
                                   1ull << 63, (1ull << 58) - 1};
    for (std::uint64_t n : edges) {
      EXPECT_EQ(div.quotient(n), n / d) << n << " / " << d;
    }
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t n = rng.engine()() >> (i % 64);
      ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
    }
  }
  EXPECT_THROW(ExactDivider(1), std::invalid_argument);
}

}  // namespace
}  // namespace perspector::sim
