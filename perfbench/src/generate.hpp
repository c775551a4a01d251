// Seeded input generators, one per workload. The same seed always gives
// the same inputs; the program only ever sees what these return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "jobs/job.hpp"

namespace perfbench {

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);
  /// A fresh generator for an independent stream (e.g. one per request).
  Rng fork(std::uint64_t stream) { return Rng(next() ^ (stream * 0xbf58476d1ce4e5b9ull)); }

 private:
  std::uint64_t state_;
};

/// The four event-group names the protocol accepts.
const std::vector<std::string>& event_groups();

/// The six suites of the paper that cold_builtin rotates through.
const std::vector<std::string>& paper_suites();

/// cold_builtin: one built-in score request.
struct BuiltinRequest {
  std::string suite;
  std::uint64_t instructions = 0;
  std::string events;
};
/// Round `round` of cold_builtin: one request per paper suite, each with
/// an instruction budget within +-4% of 500k and a drawn event group.
/// Budgets never repeat across rounds, so no request hits a cache.
std::vector<BuiltinRequest> cold_round(std::uint64_t seed, std::uint64_t round);

/// A synthetic suite of `workloads` x 14 counters with `samples`-long
/// series (aggregates are the series sums), drawn from `rng`.
perspector::core::CounterMatrix synthetic_suite(Rng& rng, const std::string& name,
                                                std::size_t workloads,
                                                std::size_t samples,
                                                const std::string& workload_prefix = "w");

/// job_drain: batch `batch` of subset-search specs on one of three small
/// built-in suites (batch mod 3 picks it) at 500k instructions, one
/// distinct seed per job.
std::vector<perspector::jobs::JobSpec> job_batch(std::uint64_t seed,
                                                 std::uint64_t batch,
                                                 std::size_t jobs,
                                                 std::uint64_t candidates);

/// csv_ingest: the aggregates dump (>= 1 MiB on disk) and the series dump.
struct IngestInputs {
  perspector::core::CounterMatrix aggregates;  // many workloads, no series
  perspector::core::CounterMatrix series;      // fewer workloads, with series
};
IngestInputs ingest_inputs(std::uint64_t seed, double scale);

/// All values of a matrix (aggregates, then every series in order).
std::vector<double> matrix_doubles(const perspector::core::CounterMatrix& m);

}  // namespace perfbench
