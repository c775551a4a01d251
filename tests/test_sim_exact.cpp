// Exact bit-identity pins for the simulator and the RNG facade.
//
// test_golden.cpp checks loose bands; these tests pin every counter total,
// every sampled series (by digest) and the raw RNG streams exactly. They
// exist so that hot-path rewrites of the simulator (cache layout, RNG
// engine, page set, TLB) can prove they changed nothing: any difference in
// model behaviour, however small, changes a digest here. The constants
// were captured from the reference implementation (std::mt19937_64 and the
// libstdc++ 12 distributions over it); never refresh them to make a
// performance change pass.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "serve/engine.hpp"
#include "sim/multicore.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace perspector {
namespace {

/// FNV-1a over the exact bytes of each value fed in.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (unsigned char ch : s) {
      hash_ ^= ch;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

using Totals = std::array<std::uint64_t, sim::kPmuEventCount>;

std::string totals_literal(const sim::PmuCounterSet& c) {
  std::string out = "{";
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(c.values[i]);
  }
  return out + "}";
}

std::uint64_t series_digest(const sim::SimResult& r) {
  Fnv fnv;
  fnv.u64(r.series.size());
  for (const auto& s : r.series) {
    fnv.u64(s.size());
    for (double v : s) fnv.f64(v);
  }
  fnv.f64(r.cycles);
  fnv.u64(r.instructions);
  return fnv.value();
}

void expect_pinned(const sim::SimResult& r, const Totals& totals,
                   std::uint64_t digest) {
  EXPECT_EQ(r.totals.values, totals) << "actual totals "
                                     << totals_literal(r.totals);
  EXPECT_EQ(series_digest(r), digest)
      << "actual series digest " << hex(series_digest(r));
}

// The golden workload of test_golden.cpp (a streaming phase, then a
// pointer chase, so faults, walks and LLC misses all move) plus three
// phases with reuse, so replacement, prefetch and predictor state decide
// hits: a uniform-random set that thrashes L1/L2 but fits the LLC, a
// Zipf-skewed hot set, and a graph walk with random jumps.
sim::WorkloadSpec golden_workload(const std::string& name = "golden") {
  sim::WorkloadSpec w;
  w.name = name;
  w.instructions = 100'000;
  sim::PhaseSpec stream;
  stream.name = "stream";
  stream.weight = 0.5;
  stream.load_frac = 0.3;
  stream.store_frac = 0.1;
  stream.branch_frac = 0.15;
  stream.pattern = {.kind = sim::AccessPatternKind::Sequential,
                    .working_set_bytes = 1 << 20,
                    .stride_bytes = 64};
  sim::PhaseSpec chase = stream;
  chase.name = "chase";
  chase.pattern.kind = sim::AccessPatternKind::PointerChase;
  chase.pattern.working_set_bytes = 16ull << 20;
  sim::PhaseSpec reuse = stream;
  reuse.name = "reuse";
  reuse.store_frac = 0.2;
  reuse.branch_randomness = 0.1;
  reuse.pattern = {.kind = sim::AccessPatternKind::RandomUniform,
                   .working_set_bytes = 384 * 1024};
  sim::PhaseSpec hot = reuse;
  hot.name = "hot";
  hot.fp_frac = 0.2;
  hot.pattern = {.kind = sim::AccessPatternKind::Zipf,
                 .working_set_bytes = 8ull << 20};
  sim::PhaseSpec graph = reuse;
  graph.name = "graph";
  graph.branch_sites = 7;
  graph.pattern = {.kind = sim::AccessPatternKind::GraphTraversal,
                   .working_set_bytes = 4ull << 20,
                   .stride_bytes = 8};
  w.phases = {stream, chase, reuse, hot, graph};
  return w;
}

sim::SimResult run_golden(const sim::MachineConfig& machine) {
  sim::SimOptions options;
  options.seed = 12345;
  options.sample_interval = 2'500;
  return sim::simulate(golden_workload(), machine, options);
}

sim::MachineConfig with_replacement(sim::ReplacementPolicy policy) {
  auto m = sim::MachineConfig::xeon_e2186g();
  m.l1d.replacement = policy;
  m.l2.replacement = policy;
  m.llc.replacement = policy;
  return m;
}

// --- Simulator: one pin per machine variant --------------------------------

TEST(SimExact, DefaultMachineNonPow2Llc) {
  // 12 MiB / 64 B / 16 ways = 12288 sets: the non-power-of-two LLC path.
  expect_pinned(run_golden(sim::MachineConfig::xeon_e2186g()),
                {20105521, 15058, 3143, 459960, 5512909, 5803, 30137,
                 16079, 11754, 5767, 17818, 7871, 17478, 7651},
                0xae0a13cdfc8259abull);
}

TEST(SimExact, RandomReplacement) {
  expect_pinned(run_golden(with_replacement(sim::ReplacementPolicy::Random)),
                {20137135, 15058, 3143, 459960, 5544523, 5803, 30137,
                 16079, 11754, 5767, 18388, 8238, 17478, 7651},
                0xdf2d159e293b99b7ull);
}

TEST(SimExact, PlruReplacement) {
  expect_pinned(run_golden(with_replacement(sim::ReplacementPolicy::Plru)),
                {20106869, 15058, 3143, 459960, 5514257, 5803, 30137,
                 16079, 11754, 5767, 17843, 7880, 17478, 7651},
                0x620eb8f6af036ab6ull);
}

TEST(SimExact, NextLinePrefetch) {
  auto m = sim::MachineConfig::xeon_e2186g();
  m.prefetcher = sim::MachineConfig::Prefetcher::NextLine;
  expect_pinned(run_golden(m),
                {18037563, 15058, 3143, 459960, 3444951, 5803, 30137,
                 16079, 11754, 5767, 10635, 5035, 9567, 4376},
                0x00f8f724b56b2f65ull);
}

TEST(SimExact, StridePrefetch) {
  auto m = sim::MachineConfig::xeon_e2186g();
  m.prefetcher = sim::MachineConfig::Prefetcher::Stride;
  expect_pinned(run_golden(m),
                {18594753, 15058, 3143, 459960, 4002141, 5803, 30137,
                 16079, 11754, 5767, 11866, 5787, 11526, 5567},
                0xc2fa839d10f9025aull);
}

TEST(SimExact, AlwaysTakenPredictor) {
  auto m = sim::MachineConfig::xeon_e2186g();
  m.predictor = sim::MachineConfig::Predictor::AlwaysTaken;
  expect_pinned(run_golden(m),
                {20100616, 15058, 2816, 459960, 5512909, 5803, 30137,
                 16079, 11754, 5767, 17818, 7871, 17478, 7651},
                0x4c6fd4b32198d377ull);
}

TEST(SimExact, BimodalPredictor) {
  auto m = sim::MachineConfig::xeon_e2186g();
  m.predictor = sim::MachineConfig::Predictor::Bimodal;
  expect_pinned(run_golden(m),
                {20104726, 15058, 3090, 459960, 5512909, 5803, 30137,
                 16079, 11754, 5767, 17818, 7871, 17478, 7651},
                0x3215e233f776bf60ull);
}

TEST(SimExact, Pow2LlcAndTinyMachine) {
  auto pow2 = sim::MachineConfig::xeon_e2186g();
  // 8192 sets: the mask path. With no LLC evictions in this workload it
  // must agree with the 12288-set default exactly.
  pow2.llc.size_bytes = 8ull << 20;
  expect_pinned(run_golden(pow2),
                {20105521, 15058, 3143, 459960, 5512909, 5803, 30137,
                 16079, 11754, 5767, 17818, 7871, 17478, 7651},
                0xae0a13cdfc8259abull);
  expect_pinned(run_golden(sim::MachineConfig::tiny()),
                {22331064, 15058, 3143, 1467120, 7738452, 5803, 30137,
                 16079, 17745, 9689, 22433, 10852, 21332, 10126},
                0x1378e3c2cf762e58ull);
}

TEST(SimExact, SmallNonPow2LlcEvicts) {
  // 48 KiB / 64 B / 4 ways = 192 sets: the non-power-of-two index path
  // with LLC evictions, under each replacement policy.
  const std::pair<sim::ReplacementPolicy, Totals> pins[] = {
      {sim::ReplacementPolicy::Lru,
       {22051404, 15058, 3143, 1467120, 7458792, 5803, 30137,
        16079, 17745, 9689, 22433, 10852, 20276, 9412}},
      {sim::ReplacementPolicy::Random,
       {22119098, 15058, 3143, 1467120, 7526486, 5803, 30137,
        16079, 17745, 9689, 22651, 10976, 20461, 9578}},
      {sim::ReplacementPolicy::Plru,
       {22055022, 15058, 3143, 1467120, 7462410, 5803, 30137,
        16079, 17745, 9689, 22445, 10850, 20290, 9419}},
  };
  const std::uint64_t digests[] = {
      0x3d3620758c211bd4ull, 0x22421f8a93129034ull, 0x38c02efc7c086656ull};
  for (std::size_t i = 0; i < 3; ++i) {
    auto m = sim::MachineConfig::tiny();
    m.llc = {.size_bytes = 48 * 1024, .line_bytes = 64, .ways = 4,
             .replacement = pins[i].first};
    m.l1d.replacement = pins[i].first;
    m.l2.replacement = pins[i].first;
    expect_pinned(run_golden(m), pins[i].second, digests[i]);
  }
}

TEST(SimExact, SharedLlcColocation) {
  sim::WorkloadSpec big = golden_workload("colo-big");
  big.phases[1].pattern.working_set_bytes = 32ull << 20;
  sim::WorkloadSpec small = golden_workload("colo-small");
  small.instructions = 30'000;
  sim::MulticoreOptions options;
  options.quantum = 3'000;
  options.sample_interval = 2'500;
  options.seed = 7;
  const auto results = sim::simulate_colocated(
      {big, small}, sim::MachineConfig::xeon_e2186g(), options);
  ASSERT_EQ(results.size(), 2u);
  expect_pinned(results[0],
                {24520500, 14921, 3140, 548400, 5635338, 7520, 30197,
                 16108, 11965, 5815, 17903, 7965, 17611, 7740},
                0xd489dabc00b91bbdull);
  expect_pinned(results[1],
                {9374550, 4532, 1059, 180840, 1902293, 2978, 9067,
                 4786, 3510, 1741, 5971, 2716, 5968, 2716},
                0x1294cc9c8511c8afull);
}

// --- The builtin suites as the serving tier simulates them -----------------

std::uint64_t matrix_digest(const core::CounterMatrix& m) {
  Fnv fnv;
  fnv.str(m.suite_name());
  for (const auto& w : m.workload_names()) fnv.str(w);
  for (const auto& c : m.counter_names()) fnv.str(c);
  for (std::size_t w = 0; w < m.num_workloads(); ++w) {
    for (std::size_t c = 0; c < m.num_counters(); ++c) {
      fnv.f64(m.value(w, c));
      if (!m.has_series()) continue;
      const auto& s = m.series(w, c);
      fnv.u64(s.size());
      for (double v : s) fnv.f64(v);
    }
  }
  return fnv.value();
}

TEST(SimExact, PaperSuitesAt20k) {
  const std::array<std::pair<const char*, std::uint64_t>, 6> pins = {{
      {"spec17", 0x6ecb2198dea099e7ull},
      {"parsec", 0x8a0ad355c70033a1ull},
      {"ligra", 0xf6fdd1373ea61410ull},
      {"lmbench", 0xb93845fc81e61377ull},
      {"nbench", 0xc80be1ccfa486624ull},
      {"sgxgauge", 0x54150285600d70d0ull},
  }};
  for (const auto& [name, digest] : pins) {
    const auto m = serve::simulate_builtin(name, 20'000);
    EXPECT_EQ(matrix_digest(m), digest)
        << name << ": actual " << hex(matrix_digest(m));
  }
}

// --- RNG streams ------------------------------------------------------------

template <typename Draw>
std::uint64_t stream_digest(Draw&& draw) {
  Fnv fnv;
  for (int i = 0; i < 64; ++i) draw(fnv);
  return fnv.value();
}

constexpr std::uint64_t kSeeds[] = {1, 42, 0x9e3779b97f4a7c15ull};

TEST(RngExact, EngineMatchesTheStandardCheckValue) {
  // [rand.predef]: the 10000th output of a default-seeded mt19937_64.
  stats::Rng rng(5489);
  std::uint64_t x = 0;
  for (int i = 0; i < 10'000; ++i) x = rng.engine()();
  EXPECT_EQ(x, 9981545732273789042ull);
  EXPECT_LE(sizeof(stats::Rng), 2504u);
}

TEST(RngExact, Uniform) {
  const std::uint64_t pins[][2] = {
      {0xc649c874ec35a570ull, 0x967f070f95fa259bull},
      {0xd63c360d3a22cd9eull, 0xa8608c8e51c46772ull},
      {0xe505004998df3e3eull, 0x0988e752bdeff323ull}};
  for (std::size_t s = 0; s < 3; ++s) {
    stats::Rng a(kSeeds[s]);
    const auto unit = stream_digest([&](Fnv& f) { f.f64(a.uniform()); });
    stats::Rng b(kSeeds[s]);
    const auto ranged =
        stream_digest([&](Fnv& f) { f.f64(b.uniform(-3.25, 1e6)); });
    EXPECT_EQ(unit, pins[s][0]) << "seed " << s << " actual " << hex(unit);
    EXPECT_EQ(ranged, pins[s][1]) << "seed " << s << " actual " << hex(ranged);
  }
}

TEST(RngExact, Bernoulli) {
  // p outside [0, 1] clamps: always true above 1, always false below 0.
  const double ps[] = {0.002, 0.3, 0.5, 0.97, 1.5, -0.25};
  const std::uint64_t pins[3] = {0x62bf370813e8bc24ull, 0xb405d0f7727ee765ull,
                                 0x029c5c56abb0c644ull};
  for (std::size_t s = 0; s < 3; ++s) {
    stats::Rng rng(kSeeds[s]);
    const auto digest = stream_digest([&](Fnv& f) {
      for (double p : ps) f.u64(rng.bernoulli(p) ? 1 : 0);
    });
    EXPECT_EQ(digest, pins[s]) << "seed " << s << " actual " << hex(digest);
  }
}

TEST(RngExact, UniformInt) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // [0, 2^63] has range 2^63 + 1: about half of all draws are rejected,
  // so the rejection loop runs constantly. [0, max] is the full-range
  // pass-through; [7, 7] is the degenerate single value.
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {0, 9},
      {3, 5},
      {0, 1ull << 63},
      {0, kMax},
      {7, 7},
      {1000, 1000 + (1ull << 40) + 7},
      {kMax - 2, kMax},
      {0, (1ull << 62) * 3}};
  const std::uint64_t pins[3] = {0xcf2ec3cf4b518b26ull, 0x21eeb6f5b60e7814ull,
                                 0xeb55e96584f5bec4ull};
  for (std::size_t s = 0; s < 3; ++s) {
    stats::Rng rng(kSeeds[s]);
    const auto digest = stream_digest([&](Fnv& f) {
      for (const auto& [lo, hi] : ranges) f.u64(rng.uniform_int(lo, hi));
    });
    EXPECT_EQ(digest, pins[s]) << "seed " << s << " actual " << hex(digest);
  }
}

TEST(RngExact, Fork) {
  const std::uint64_t pins[3] = {0xc4afc057b8bb01eaull, 0xbc140987dfe2ed79ull,
                                 0x06c019a6124b6dc7ull};
  for (std::size_t s = 0; s < 3; ++s) {
    stats::Rng parent(kSeeds[s]);
    const auto digest = stream_digest([&](Fnv& f) {
      stats::Rng child = parent.fork();
      f.u64(child.engine()());
      f.f64(child.uniform());
    });
    EXPECT_EQ(digest, pins[s]) << "seed " << s << " actual " << hex(digest);
  }
}

TEST(RngExact, NormalAndPermutation) {
  const std::uint64_t pins[][2] = {
      {0xc82e69e97a8cfbceull, 0xe4c1cf152c3d2bf8ull},
      {0xa1204331c1d84c26ull, 0xcbcd773046891710ull},
      {0x5d6f3f1ca7ef7b94ull, 0xfb35c4c4090b8789ull}};
  for (std::size_t s = 0; s < 3; ++s) {
    stats::Rng rng(kSeeds[s]);
    const auto normal = stream_digest([&](Fnv& f) {
      f.f64(rng.normal());
      f.f64(rng.normal(10.0, 2.5));
    });
    Fnv perm;
    for (std::size_t n : {1, 2, 7, 64, 1000}) {
      for (std::size_t v : rng.permutation(n)) perm.u64(v);
    }
    for (std::size_t v : rng.sample_without_replacement(50, 9)) perm.u64(v);
    EXPECT_EQ(normal, pins[s][0]) << "seed " << s << " actual " << hex(normal);
    EXPECT_EQ(perm.value(), pins[s][1])
        << "seed " << s << " actual " << hex(perm.value());
  }
}

TEST(RngExact, MixedDrawsShareOneStream) {
  // Interleaved draw kinds, as the core model makes them per instruction.
  stats::Rng rng(2024);
  const auto digest = stream_digest([&](Fnv& f) {
    f.u64(rng.bernoulli(0.002) ? 1 : 0);
    f.f64(rng.uniform());
    f.u64(rng.uniform_int(0, 131071));
    f.f64(rng.uniform(-0.08, 0.08));
    f.u64(rng.zipf(100, 1.1));
    const double w[] = {0.5, 0.0, 2.0, 1.25};
    f.u64(rng.weighted_index(w));
  });
  EXPECT_EQ(digest, 0x63d826ec31c7c597ull) << "actual " << hex(digest);
}

}  // namespace
}  // namespace perspector
