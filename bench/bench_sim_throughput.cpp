// Simulator throughput bench: simulated Minstr per host second for each
// paper suite, at 1 thread and at every hardware thread, plus the exact
// work the simulator did.
//
//   bench_sim_throughput [instructions_per_workload] [sample_interval]
//                        [--out <path>]
//
// Each suite is built at the given budget (default 500'000 instructions
// per workload, the cold serving path's scale) and simulated with the
// serving tier's sampling interval (instructions / 100) through
// sim::simulate_suite, once with one thread and once with
// par::hardware_threads() threads. Wall time gives `<suite>_minstr_per_s_1t`
// and `<suite>_minstr_per_s_nt`; both are informational, never gated.
//
// The work counters come from the model's own state, not from the host:
// instructions, demand accesses per cache level, TLB walks (STLB misses)
// and RNG draws (read from each engine's block position). Together with a
// digest of every counter total and series they are emitted as
// `*_exact` metrics, which tools/perf_check requires to be equal. CI
// gates a 20k run against results/bench_sim_baseline.json; a change that
// moves any of them changed what the simulator computes. The bench itself
// fails when the 1-thread and all-thread runs disagree.
//
// Besides the stdout table, writes results/bench_sim.json (override with
// --out <path>).
#include <algorithm>
#include <bit>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "par/thread_pool.hpp"

using namespace perspector;

namespace {

constexpr const char* kSuites[] = {"spec17",  "parsec", "ligra",
                                   "lmbench", "nbench", "sgxgauge"};

struct SuiteRun {
  double seconds = 0.0;
  std::uint64_t workloads = 0;
  std::uint64_t instructions = 0;
  sim::SimWork work;
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a of all outputs
};

void fold(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

SuiteRun run_suite(const sim::SuiteSpec& spec,
                   const bench::BenchConfig& config) {
  const auto machine = sim::MachineConfig::xeon_e2186g();
  const auto start = std::chrono::steady_clock::now();
  const auto results =
      sim::simulate_suite(spec, machine, bench::sim_options(config));
  SuiteRun run;
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (const auto& r : results) {
    ++run.workloads;
    run.instructions += r.instructions;
    run.work.l1_accesses += r.work.l1_accesses;
    run.work.l2_accesses += r.work.l2_accesses;
    run.work.llc_accesses += r.work.llc_accesses;
    run.work.tlb_walks += r.work.tlb_walks;
    run.work.rng_draws += r.work.rng_draws;
    for (std::uint64_t v : r.totals.values) fold(run.digest, v);
    for (const auto& series : r.series) {
      fold(run.digest, series.size());
      for (double v : series) {
        fold(run.digest, std::bit_cast<std::uint64_t>(v));
      }
    }
    fold(run.digest, std::bit_cast<std::uint64_t>(r.cycles));
  }
  return run;
}

bool same_output(const SuiteRun& a, const SuiteRun& b) {
  return a.digest == b.digest && a.instructions == b.instructions &&
         a.work.l1_accesses == b.work.l1_accesses &&
         a.work.l2_accesses == b.work.l2_accesses &&
         a.work.llc_accesses == b.work.llc_accesses &&
         a.work.tlb_walks == b.work.tlb_walks &&
         a.work.rng_draws == b.work.rng_draws;
}

double minstr_per_s(const SuiteRun& run) {
  return static_cast<double>(run.instructions) / 1e6 /
         std::max(run.seconds, 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_sim.json";
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  auto config = bench::parse_args(static_cast<int>(positional.size()),
                                  positional.data());
  if (positional.size() < 2) {
    config.instructions = 500'000;
    config.sample_interval = config.instructions / 100;
  }
  const std::size_t all_threads = par::hardware_threads();

  bench::BenchReport report("bench_sim_throughput", config);
  core::Table table({"suite", "workloads", "Minstr/s 1t",
                     "Minstr/s " + std::to_string(all_threads) + "t",
                     "instructions", "L1 acc", "L2 acc", "LLC acc",
                     "TLB walks", "RNG draws", "digest"});
  bool deterministic = true;
  for (const char* name : kSuites) {
    suites::SuiteBuildOptions build = bench::build_options(config);
    const sim::SuiteSpec spec = suites::suite_by_name(name, build);

    par::set_thread_count(1);
    const SuiteRun serial = run_suite(spec, config);
    par::set_thread_count(all_threads);
    const SuiteRun parallel = run_suite(spec, config);
    if (!same_output(serial, parallel)) {
      std::cerr << "bench_sim_throughput: " << name
                << ": outputs differ between 1 and " << all_threads
                << " threads\n";
      deterministic = false;
    }

    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(serial.digest));
    table.add_row({name, std::to_string(serial.workloads),
                   core::format_double(minstr_per_s(serial), 2),
                   core::format_double(minstr_per_s(parallel), 2),
                   std::to_string(serial.instructions),
                   std::to_string(serial.work.l1_accesses),
                   std::to_string(serial.work.l2_accesses),
                   std::to_string(serial.work.llc_accesses),
                   std::to_string(serial.work.tlb_walks),
                   std::to_string(serial.work.rng_draws), digest});

    const std::string prefix = name;
    report.add_metric(prefix + "_minstr_per_s_1t", minstr_per_s(serial));
    report.add_metric(prefix + "_minstr_per_s_nt", minstr_per_s(parallel));
    const auto exact = [&](const std::string& metric, std::uint64_t value) {
      report.add_metric(prefix + "_" + metric + "_exact",
                        static_cast<double>(value));
    };
    exact("instructions", serial.instructions);
    exact("l1_accesses", serial.work.l1_accesses);
    exact("l2_accesses", serial.work.l2_accesses);
    exact("llc_accesses", serial.work.llc_accesses);
    exact("tlb_walks", serial.work.tlb_walks);
    exact("rng_draws", serial.work.rng_draws);
    // JSON numbers are doubles: keep the digest's low 53 bits, which a
    // double holds exactly.
    exact("digest", serial.digest & ((std::uint64_t{1} << 53) - 1));
  }

  std::cout << "Simulator throughput (" << config.instructions
            << " instructions/workload, sample interval "
            << config.sample_interval << ")\n\n"
            << table.to_text();
  report.write(out_path);
  std::cerr << "wrote " << out_path << "\n";
  return deterministic ? 0 : 1;
}
