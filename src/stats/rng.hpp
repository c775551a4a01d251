// Deterministic random-number facade.
//
// Every stochastic component in the library (k-means seeding, LHS, the
// workload simulator) draws through this wrapper so runs are reproducible
// from a single seed.
//
// Determinism contract: the engine is an in-repo MT19937-64 whose output
// equals std::mt19937_64 for every seed, and `uniform`, `bernoulli` and
// `uniform_int` reproduce libstdc++ 12's uniform_real_distribution,
// bernoulli_distribution and uniform_int_distribution over it bit for bit.
// Nothing here depends on how a standard library implements those
// distributions; tests/test_sim_exact.cpp pins the streams.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perspector::stats {

/// MT19937-64 (Matsumoto & Nishimura), output-identical to
/// std::mt19937_64. The state is regenerated a whole block at a time and
/// tempered on draw. Satisfies UniformRandomBitGenerator, so std
/// algorithms (shuffle, normal_distribution) accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateWords) refill();
    std::uint64_t z = state_[index_];
    index_ = index_ + 1;
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

  /// Outputs drawn so far, read from the block position (no per-draw
  /// bookkeeping).
  std::uint64_t draws() const noexcept {
    return blocks_ * kStateWords + index_ - kStateWords;
  }

 private:
  /// Regenerates all kStateWords words of state (the twist).
  void refill();

  std::array<std::uint64_t, kStateWords> state_;
  // Packed into one word so the engine is no larger than std::mt19937_64.
  std::uint64_t index_ : 16;   // next word to temper; kStateWords = empty
  std::uint64_t blocks_ : 48;  // refills so far
};

/// Seeded MT19937-64 wrapper with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi): libstdc++'s `c * (hi - lo) + lo` with
  /// c = generate_canonical<double, 53>.
  double uniform(double lo = 0.0, double hi = 1.0) {
    return canonical() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi. Lemire's
  /// nearly-divisionless method, as libstdc++ downscales a 64-bit engine.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    const std::uint64_t span = hi - lo;
    if (span == ~std::uint64_t{0}) return lo + engine_();
    const std::uint64_t range = span + 1;
    unsigned __int128 product =
        static_cast<unsigned __int128>(engine_()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = -range % range;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return lo + static_cast<std::uint64_t>(product >> 64);
  }

  /// Standard normal (mean 0, stddev 1) scaled/shifted.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with probability p of true. p outside [0, 1] acts as
  /// clamped: the canonical draw lies in [0, 1), so `c < p` is always true
  /// above 1 and always false below 0.
  bool bernoulli(double p) { return canonical() < p; }

  /// Zipf-distributed rank in [0, n) with exponent s > 0 (rank 0 most
  /// frequent). Uses a precomputed CDF per call set; intended for modest n.
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples k distinct indices from {0, ..., n-1}; requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Weighted index draw proportional to non-negative weights
  /// (at least one weight must be positive).
  std::size_t weighted_index(std::span<const double> weights);

  Mt19937_64& engine() noexcept { return engine_; }

  /// Engine outputs consumed so far (every draw kind counts its words).
  std::uint64_t draws() const noexcept { return engine_.draws(); }

  /// Derives an independent child generator (for per-workload streams).
  Rng fork();

 private:
  /// generate_canonical<double, 53>: double(x) / 2^64, clamped below 1.
  /// The u64 -> double conversion is split into two exact halves so the
  /// sum rounds once, exactly as a direct conversion does, without the
  /// sign-bit branch compilers emit for it.
  double canonical() {
    const std::uint64_t x = engine_();
    const double d = static_cast<double>(x >> 32) * 4294967296.0 +
                     static_cast<double>(static_cast<std::uint32_t>(x));
    const double c = d * 0x1p-64;
    return c < 1.0 ? c : 0x1.fffffffffffffp-1;
  }

  Mt19937_64 engine_;
};

/// libstdc++'s 64-bit _Hash_bytes (Murmur-derived, seed 0xc70f6907): the
/// value std::hash<std::string> gives on libstdc++, computed in-repo so
/// name-derived seeds do not depend on the standard library in use.
std::uint64_t hash_bytes(std::string_view bytes);

}  // namespace perspector::stats
