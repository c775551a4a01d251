#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "suites/suite_factory.hpp"

namespace perspector::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
  EXPECT_THROW(rng.uniform_int(5, 3), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  // Degenerate probabilities never throw and behave as expected.
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-2.0));  // clamped
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<std::size_t>(rng.zipf(10, 1.2))];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
  EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.zipf(10, 0.0), std::invalid_argument);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(12);
  auto p = rng.permutation(20);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(13);
  auto s = rng.sample_without_replacement(10, 4);
  EXPECT_EQ(s.size(), 4u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  for (std::size_t i : s) EXPECT_LT(i, 10u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(14);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);

  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), std::invalid_argument);
  const std::vector<double> negative{-1.0, 2.0};
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.fork();
  // The child stream should not replicate the parent's next draws.
  Rng parent2(15);
  (void)parent2.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.uniform() == parent.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(16), b(16);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
  }
}

TEST(Mt19937_64, MatchesTheStandardEngineForManySeeds) {
  for (std::uint64_t seed : {0ull, 1ull, 5489ull, 0x9e3779b97f4a7c15ull,
                             ~0ull}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    // Several refills, so every twist loop and the wrap-around run.
    for (int i = 0; i < 3 * 312 + 7; ++i) {
      ASSERT_EQ(ours(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, DrawsAreCountedFromTheBlockPosition) {
  Mt19937_64 engine(3);
  EXPECT_EQ(engine.draws(), 0u);
  for (int i = 0; i < 1000; ++i) engine();
  EXPECT_EQ(engine.draws(), 1000u);

  // Each draw kind consumes whole engine outputs; uniform_int may reject.
  Rng rng(4);
  rng.uniform();
  rng.bernoulli(0.5);
  rng.uniform_int(0, 9);
  (void)rng.fork();
  EXPECT_EQ(rng.draws(), 4u);
  std::uint64_t expected = rng.draws();
  for (int i = 0; i < 200; ++i) {
    Rng probe = rng;  // replay the same stream to count its rejections
    const std::uint64_t before = probe.draws();
    probe.uniform_int(0, 1ull << 63);
    expected += probe.draws() - before;
    rng.uniform_int(0, 1ull << 63);
  }
  EXPECT_EQ(rng.draws(), expected);
  EXPECT_GT(expected, 4u + 200u);  // [0, 2^63] rejects about half
  EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64));
}

#if defined(__GLIBCXX__)
// The facade promises libstdc++'s distributions bit for bit; on libstdc++
// compare against them directly over a long stream.
TEST(Rng, DistributionsMatchLibstdcxx) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng ours(77);
  std::mt19937_64 reference(77);
  for (int i = 0; i < 20'000; ++i) {
    switch (i % 5) {
      case 0:
        ASSERT_EQ(ours.uniform(),
                  std::uniform_real_distribution<double>(0.0, 1.0)(reference));
        break;
      case 1:
        ASSERT_EQ(ours.uniform(-0.08, 0.08),
                  std::uniform_real_distribution<double>(-0.08, 0.08)(
                      reference));
        break;
      case 2: {
        const double p = (i % 7) / 5.0 - 0.2;  // spans [-0.2, 1.0]
        ASSERT_EQ(ours.bernoulli(p), std::bernoulli_distribution(
                                         std::clamp(p, 0.0, 1.0))(reference));
        break;
      }
      case 3: {
        const std::uint64_t hi = (i % 3 == 0)   ? 1ull << 63
                                 : (i % 3 == 1) ? kMax
                                                : static_cast<std::uint64_t>(i);
        ASSERT_EQ(ours.uniform_int(0, hi),
                  std::uniform_int_distribution<std::uint64_t>(0, hi)(
                      reference));
        break;
      }
      default:
        ASSERT_EQ(ours.uniform_int(3, 12288),
                  std::uniform_int_distribution<std::uint64_t>(3, 12288)(
                      reference));
    }
  }
}
#endif

TEST(HashBytes, PinnedForTheSuiteWorkloadNames) {
  // Name-derived seeds: these values must never change, whatever standard
  // library builds the program.
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"", 0x553e93901e462a6eull},
      {"a", 0x454ddee488c1ed6bull},
      {"golden", 0x49390eaf416b7266ull},
      {"exactly8", 0xbc769552f7635847ull},
      {"nine char", 0x552e992dc8373ca1ull},
      {"blackscholes", 0x76d3b32ab4621f72ull},
      {"500.perlbench_r", 0xdcff17908f75e74dull},
      {"BFS", 0x1ba42705ef4dcc7bull},
      {"bw_file_rd", 0x0b1642a65b11d07aull},
      {"numeric-sort", 0x80b39e1f088bbd6full},
      {"openssl", 0x28c28d10d7079383ull},
  };
  for (const auto& [name, value] : pins) {
    EXPECT_EQ(hash_bytes(name), value) << name;
  }
  // Every workload name of the six paper suites, folded in suite order.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& suite :
       suites::all_suites({.instructions_per_workload = 1000})) {
    for (const auto& w : suite.workloads) {
      const std::uint64_t v = hash_bytes(w.name);
#if defined(__GLIBCXX__)
      EXPECT_EQ(v, std::hash<std::string>{}(w.name)) << w.name;
#endif
      for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
      }
    }
  }
  EXPECT_EQ(digest, 0xec4a65a2a43a9975ull);
}

}  // namespace
}  // namespace perspector::stats
