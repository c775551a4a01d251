// dtw_distances runs many pairs per SIMD vector. Each lane body (scalar,
// AVX2, AVX-512F) must return, pair for pair, the exact bits of a separate
// dtw_distance call, advance dtw.calls / dtw.cells exactly as those calls
// would, and throw what the first failing call throws. Bodies the CPU
// cannot run are skipped.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtw/dtw.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace perspector::dtw {
namespace {

using detail::LaneIsa;

// Every body's block holds at most this many pairs.
constexpr std::size_t kMaxBlock = 16;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<double> random_series(std::uint64_t seed, std::size_t n) {
  stats::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-5.0, 5.0);
  return s;
}

std::vector<double> tied_series(std::uint64_t seed, std::size_t n) {
  stats::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = static_cast<double>(rng.uniform_int(0, 1));
  return s;
}

DtwOptions banded(std::optional<double> band) {
  DtwOptions options;
  options.band_fraction = band;
  return options;
}

struct Work {
  std::uint64_t calls = 0;
  std::uint64_t cells = 0;
};

Work work_now() {
  return {obs::counter("dtw.calls").value(), obs::counter("dtw.cells").value()};
}

Work since(const Work& before) {
  const Work now = work_now();
  return {now.calls - before.calls, now.cells - before.cells};
}

std::string error_of(LaneIsa isa, const std::vector<DtwPair>& pairs,
                     const DtwOptions& options = {}) {
  std::vector<double> out(pairs.size());
  try {
    detail::dtw_distances_with(isa, pairs, options, out);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

class DtwBatch : public ::testing::TestWithParam<LaneIsa> {
 protected:
  void SetUp() override {
    if (!detail::lane_isa_supported(GetParam())) {
      GTEST_SKIP() << "this CPU lacks the body's ISA";
    }
  }

  // Runs the body on `pairs` and compares every slot and the work counters
  // with per-pair dtw_distance calls.
  void expect_matches_per_pair(const std::vector<DtwPair>& pairs,
                               const DtwOptions& options) {
    std::vector<double> want(pairs.size());
    Work before = work_now();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      want[p] = dtw_distance(pairs[p].a, pairs[p].b, options).distance;
    }
    const Work want_work = since(before);

    std::vector<double> got(pairs.size());
    before = work_now();
    detail::dtw_distances_with(GetParam(), pairs, options, got);
    const Work got_work = since(before);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(bits(got[p]), bits(want[p])) << "pair " << p;
    }
    EXPECT_EQ(got_work.calls, want_work.calls);
    EXPECT_EQ(got_work.cells, want_work.cells);
  }
};

std::vector<DtwPair> pairs_of(const std::vector<std::vector<double>>& a,
                              const std::vector<std::vector<double>>& b) {
  std::vector<DtwPair> pairs;
  for (std::size_t p = 0; p < a.size(); ++p) pairs.push_back({a[p], b[p]});
  return pairs;
}

TEST_P(DtwBatch, EveryPairCountAndBandMatchesPerPairCalls) {
  std::vector<std::vector<double>> a, b;
  for (std::size_t p = 0; p < 2 * kMaxBlock + 1; ++p) {
    a.push_back(random_series(100 + p, 101));
    b.push_back(random_series(500 + p, 101));
  }
  for (const auto band : {std::optional<double>{}, std::optional<double>{0.0},
                          std::optional<double>{0.05},
                          std::optional<double>{0.3},
                          std::optional<double>{1.0}}) {
    for (std::size_t count = 1; count <= a.size(); ++count) {
      SCOPED_TRACE(count);
      std::vector<DtwPair> pairs = pairs_of(a, b);
      pairs.resize(count);
      expect_matches_per_pair(pairs, banded(band));
    }
  }
}

TEST_P(DtwBatch, ExactTiesMatchPerPairCalls) {
  std::vector<std::vector<double>> a, b;
  for (std::size_t p = 0; p < kMaxBlock + 3; ++p) {
    a.push_back(tied_series(p, 30));
    b.push_back(tied_series(p + 1, 30));
  }
  b[4] = a[4];  // identical series: distance exactly +0.0
  for (const auto band : {std::optional<double>{}, std::optional<double>{0.1}}) {
    expect_matches_per_pair(pairs_of(a, b), banded(band));
  }
}

// Pairs with a.size() != b.size() still share lanes when the whole block
// has one shape; a block of mixed shapes falls back to per-pair calls.
TEST_P(DtwBatch, UnequalLengthsMatchPerPairCalls) {
  std::vector<std::vector<double>> a, b;
  for (std::size_t p = 0; p < kMaxBlock + 5; ++p) {
    a.push_back(random_series(700 + p, 73));
    b.push_back(random_series(800 + p, 19));
  }
  for (const auto band : {std::optional<double>{}, std::optional<double>{0.1}}) {
    expect_matches_per_pair(pairs_of(a, b), banded(band));
    expect_matches_per_pair(pairs_of(b, a), banded(band));
    auto mixed = pairs_of(a, b);
    mixed[2] = {b[2], b[3]};
    mixed[kMaxBlock + 1] = {a[0], std::span<const double>(a[1]).first(1)};
    expect_matches_per_pair(mixed, banded(band));
  }
}

TEST_P(DtwBatch, PathNormalizedFallsBackToPerPairCalls) {
  std::vector<std::vector<double>> a, b;
  for (std::size_t p = 0; p < 5; ++p) {
    a.push_back(random_series(900 + p, 40));
    b.push_back(random_series(950 + p, 33));
  }
  DtwOptions options;
  options.path_normalized = true;
  expect_matches_per_pair(pairs_of(a, b), options);
}

// Any non-finite input makes the corner non-finite; the batch throws what
// dtw_distance throws, wherever the bad pair sits in its block.
TEST_P(DtwBatch, NonFiniteInputsThrowLikeThePerPairCall) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (const std::size_t at : {0u, 7u, 16u}) {
      std::vector<std::vector<double>> a, b;
      for (std::size_t p = 0; p < kMaxBlock + 2; ++p) {
        a.push_back(random_series(1000 + p, 17));
        b.push_back(random_series(1100 + p, 17));
      }
      b[at][at % 17] = bad;
      EXPECT_EQ(error_of(GetParam(), pairs_of(a, b)),
                "dtw: band too narrow to connect endpoints");
    }
  }
}

TEST_P(DtwBatch, LowestIndexedFailureWins) {
  std::vector<std::vector<double>> a, b;
  for (std::size_t p = 0; p < 2 * kMaxBlock; ++p) {
    a.push_back(random_series(1200 + p, 12));
    b.push_back(random_series(1300 + p, 12));
  }
  const std::vector<double> empty;
  auto pairs = pairs_of(a, b);
  b[3][5] = std::numeric_limits<double>::infinity();
  pairs[20] = {a[20], empty};
  EXPECT_EQ(error_of(GetParam(), pairs),
            "dtw: band too narrow to connect endpoints");
  pairs[1] = {empty, b[1]};
  EXPECT_EQ(error_of(GetParam(), pairs), "dtw: empty series");
  EXPECT_EQ(error_of(GetParam(), pairs_of(a, b), banded(1.5)),
            "dtw: band_fraction must be in [0,1]");
}

TEST_P(DtwBatch, EmptyBatchAndOutputSize) {
  std::vector<double> out;
  detail::dtw_distances_with(GetParam(), {}, {}, out);
  const auto a = random_series(1400, 8);
  const std::vector<DtwPair> pairs{{a, a}};
  EXPECT_THROW(detail::dtw_distances_with(GetParam(), pairs, {}, out),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Bodies, DtwBatch,
                         ::testing::Values(LaneIsa::scalar, LaneIsa::avx2,
                                           LaneIsa::avx512f),
                         [](const auto& info) {
                           switch (info.param) {
                             case LaneIsa::avx2:
                               return std::string("Avx2");
                             case LaneIsa::avx512f:
                               return std::string("Avx512f");
                             default:
                               return std::string("Scalar");
                           }
                         });

// The public entry point dispatches to one of the bodies above.
TEST(DtwDistances, MatchesPerPairCalls) {
  const auto a = random_series(1500, 101);
  const auto b = random_series(1501, 101);
  const std::vector<DtwPair> pairs{{a, b}, {b, a}, {a, a}};
  std::vector<double> out(pairs.size());
  dtw_distances(pairs, banded(0.1), out);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(bits(out[p]),
              bits(dtw_distance(pairs[p].a, pairs[p].b, banded(0.1)).distance));
  }
}

}  // namespace
}  // namespace perspector::dtw
