// perfbench_runner — runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload <name> --seed N --seconds S --trace 0|1
//                    [--threads N] [--scale F] [--stall-ms MS --stall-at ID]
//                    [--work-dir DIR]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every correctness check passed.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace {

std::uint64_t parse_u64(const std::string& flag, const char* value) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    throw std::invalid_argument("bad value for " + flag + ": " + value);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool serve_child = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--serve-child") {
        serve_child = true;
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      const char* value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = parse_u64(flag, value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = parse_u64(flag, value) != 0;
      } else if (flag == "--threads") {
        options.threads = parse_u64(flag, value);
      } else if (flag == "--scale") {
        options.scale = std::stod(value);
      } else if (flag == "--stall-ms") {
        options.stall_ms = parse_u64(flag, value);
      } else if (flag == "--stall-at") {
        options.stall_at = parse_u64(flag, value);
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (options.threads == 0 || options.seconds <= 0.0 || options.scale <= 0.0) {
      throw std::invalid_argument("--threads, --seconds and --scale must be positive");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }

  // Timed runs measure the program as users run it: the obs tracer stays
  // off (the traced run records its own spans from outside).
  perspector::obs::Tracer::instance().disable();

  if (serve_child) perfbench::serve_child(options);

  perspector::par::set_thread_count(options.threads);
  std::filesystem::create_directories(options.work_dir);
  perfbench::Result result;
  try {
    if (options.workload == "cold_builtin") return perfbench::run_cold_builtin(options, result);
    if (options.workload == "serve_mix") return perfbench::run_serve_mix(options, result);
    if (options.workload == "job_drain") return perfbench::run_job_drain(options, result);
    if (options.workload == "csv_ingest") return perfbench::run_csv_ingest(options, result);
  } catch (const std::exception& e) {
    result.fail(std::string("unexpected error: ") + e.what());
    return result.print();
  }
  std::cerr << "perfbench_runner: unknown workload '" << options.workload << "'\n";
  return 2;
}
