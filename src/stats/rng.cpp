#include "stats/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perspector::stats {

namespace {

constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One twist step: the upper bit of `hi` joined to the lower 31 bits of
// `lo`, multiplied by the companion matrix. The branch-free select keeps
// the refill loops vectorizable.
inline std::uint64_t twist(std::uint64_t far, std::uint64_t hi,
                           std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) : index_(kN), blocks_(0) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  std::uint64_t* x = state_.data();
  // Three straight loops, split where the x[k + m] operand wraps around.
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x[k] = twist(x[k + kM], x[k], x[k + 1]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = twist(x[k + kM - kN], x[k], x[k + 1]);
  }
  x[kN - 1] = twist(x[kM - 1], x[kN - 1], x[0]);
  index_ = 0;
  blocks_ = blocks_ + 1;
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("Rng::zipf: n must be > 0");
  if (s <= 0.0) throw std::invalid_argument("Rng::zipf: s must be > 0");
  // Inverse-CDF sampling over the (finite) Zipf mass function. The harmonic
  // normalizer is recomputed per call; callers with hot loops should cache
  // ranks themselves (the simulator does).
  double h = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) h += 1.0 / std::pow(k, s);
  double u = uniform(0.0, h);
  for (std::uint64_t k = 1; k <= n; ++k) {
    u -= 1.0 / std::pow(k, s);
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  std::shuffle(p.begin(), p.end(), engine_);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("Rng::sample_without_replacement: k > n");
  }
  auto p = permutation(n);
  p.resize(k);
  return p;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("Rng::weighted_index: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::weighted_index: all weights zero");
  }
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() {
  // Derive a child seed; splitmix-style scramble avoids correlated streams.
  std::uint64_t s = engine_();
  s ^= s >> 30;
  s *= 0xbf58476d1ce4e5b9ull;
  s ^= s >> 27;
  s *= 0x94d049bb133111ebull;
  s ^= s >> 31;
  return Rng(s);
}

std::uint64_t hash_bytes(std::string_view bytes) {
  constexpr std::uint64_t kSeed = 0xc70f6907ull;
  constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ull;
  const auto shift_mix = [](std::uint64_t v) { return v ^ (v >> 47); };
  // Little-endian loads, as libstdc++ reads words on x86-64 and AArch64.
  const auto load = [&](std::size_t at, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = n; i-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
    }
    return v;
  };
  const std::size_t len = bytes.size();
  const std::size_t aligned = len & ~std::size_t{7};
  std::uint64_t hash = kSeed ^ (len * kMul);
  for (std::size_t at = 0; at < aligned; at += 8) {
    hash ^= shift_mix(load(at, 8) * kMul) * kMul;
    hash *= kMul;
  }
  if ((len & 7) != 0) {
    hash ^= load(aligned, len & 7);
    hash *= kMul;
  }
  hash = shift_mix(hash) * kMul;
  return shift_mix(hash);
}

}  // namespace perspector::stats
