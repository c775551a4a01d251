#include "sampling/latin_hypercube.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace perspector::sampling {
namespace {

TEST(Lhs, ValidatesInput) {
  EXPECT_THROW(latin_hypercube(0, 3), std::invalid_argument);
  EXPECT_THROW(latin_hypercube(3, 0), std::invalid_argument);
  EXPECT_THROW(uniform_samples(0, 3), std::invalid_argument);
  EXPECT_THROW(maximin_latin_hypercube(4, 2, 0), std::invalid_argument);
}

TEST(Lhs, ShapeAndBounds) {
  const la::Matrix p = latin_hypercube(10, 4);
  EXPECT_EQ(p.rows(), 10u);
  EXPECT_EQ(p.cols(), 4u);
  for (double v : p.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Lhs, SatisfiesLatinProperty) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    LhsOptions options;
    options.seed = seed;
    EXPECT_TRUE(is_latin(latin_hypercube(16, 5, options)));
  }
}

TEST(Lhs, CenteredSamplesSitAtStratumCenters) {
  LhsOptions options;
  options.centered = true;
  const la::Matrix p = latin_hypercube(4, 2, options);
  for (double v : p.data()) {
    // Centers are (i + 0.5)/4.
    const double scaled = v * 4.0 - 0.5;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-12);
  }
  EXPECT_TRUE(is_latin(p));
}

TEST(Lhs, DeterministicForSeed) {
  LhsOptions options;
  options.seed = 77;
  EXPECT_EQ(latin_hypercube(8, 3, options), latin_hypercube(8, 3, options));
}

TEST(Lhs, IsLatinDetectsViolations) {
  la::Matrix p(2, 1);
  p(0, 0) = 0.1;
  p(1, 0) = 0.2;  // both in the first of two strata
  EXPECT_FALSE(is_latin(p));
  p(1, 0) = 1.7;  // out of bounds
  EXPECT_FALSE(is_latin(p));
  EXPECT_FALSE(is_latin(la::Matrix{}));
}

TEST(Lhs, UniformSamplesAreNotLatinUsually) {
  // With 32 samples the probability that iid uniforms are accidentally
  // Latin in every dimension is astronomically small.
  EXPECT_FALSE(is_latin(uniform_samples(32, 3, 5)));
}

TEST(Lhs, MinPairwiseDistance) {
  la::Matrix p{{0.0, 0.0}, {3.0, 4.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(min_pairwise_distance(p), 1.0);
  EXPECT_DOUBLE_EQ(min_pairwise_distance(la::Matrix(1, 2)), 0.0);
}

TEST(Lhs, MaximinImprovesOrMatchesSingleDraw) {
  LhsOptions options;
  options.seed = 123;
  const double single =
      min_pairwise_distance(latin_hypercube(12, 4, options));
  const double maximin =
      min_pairwise_distance(maximin_latin_hypercube(12, 4, 32, options));
  EXPECT_GE(maximin, single * 0.99);  // the candidate set includes stronger draws
  EXPECT_TRUE(is_latin(maximin_latin_hypercube(12, 4, 8, options)));
}

TEST(Lhs, BetterSpaceFillingThanUniformOnAverage) {
  double lhs_total = 0.0, uniform_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    LhsOptions options;
    options.seed = seed;
    lhs_total += min_pairwise_distance(latin_hypercube(16, 3, options));
    uniform_total += min_pairwise_distance(uniform_samples(16, 3, seed));
  }
  EXPECT_GT(lhs_total, uniform_total);
}

// Property: the Latin guarantee holds across sample counts and dimensions.
class LhsProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(LhsProperty, AlwaysLatin) {
  const auto [samples, dims] = GetParam();
  LhsOptions options;
  options.seed = samples * 31 + dims;
  EXPECT_TRUE(is_latin(latin_hypercube(samples, dims, options)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LhsProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 7},
                      std::pair<std::size_t, std::size_t>{8, 14},
                      std::pair<std::size_t, std::size_t>{43, 14},
                      std::pair<std::size_t, std::size_t>{100, 3}));

// Re-entrant candidate draws (the async-job search): candidate i is a
// pure function of (seed, i), so draws are order-independent and a
// resumed search reconstructs them bit-identically from the frontier.

TEST(LhsCandidate, SeedsAreDistinctAcrossIndicesAndRoots) {
  EXPECT_NE(candidate_seed(7, 0), candidate_seed(7, 1));
  EXPECT_NE(candidate_seed(7, 0), candidate_seed(8, 0));
  // Nearby (seed, index) pairs must not collide through the mixer: the
  // naive seed+index would alias (7,1) with (8,0).
  EXPECT_NE(candidate_seed(7, 1), candidate_seed(8, 0));
  EXPECT_EQ(candidate_seed(7, 3), candidate_seed(7, 3));
}

TEST(LhsCandidate, DrawsAreLatinAndDeterministic) {
  for (std::uint64_t index : {0u, 1u, 5u, 63u}) {
    const la::Matrix draw = latin_hypercube_candidate(8, 5, 1234, index);
    EXPECT_TRUE(is_latin(draw)) << "candidate " << index;
    EXPECT_EQ(draw, latin_hypercube_candidate(8, 5, 1234, index));
  }
}

TEST(LhsCandidate, DrawsDifferAcrossIndices) {
  EXPECT_NE(latin_hypercube_candidate(8, 5, 1234, 0),
            latin_hypercube_candidate(8, 5, 1234, 1));
  EXPECT_NE(latin_hypercube_candidate(8, 5, 1234, 0),
            latin_hypercube_candidate(8, 5, 4321, 0));
}

TEST(LhsCandidate, DrawIsIndependentOfEvaluationOrder) {
  // Reading candidates 5,2,7 then 2 again yields the same matrices as a
  // fresh in-order walk — no hidden stream state.
  const la::Matrix out_of_order_first = latin_hypercube_candidate(6, 4, 9, 5);
  const la::Matrix second = latin_hypercube_candidate(6, 4, 9, 2);
  latin_hypercube_candidate(6, 4, 9, 7);
  EXPECT_EQ(latin_hypercube_candidate(6, 4, 9, 2), second);
  EXPECT_EQ(latin_hypercube_candidate(6, 4, 9, 5), out_of_order_first);
}

}  // namespace
}  // namespace perspector::sampling
