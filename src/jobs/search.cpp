#include "jobs/search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/event_group.hpp"
#include "core/io.hpp"
#include "sampling/latin_hypercube.hpp"
#include "sampling/representative.hpp"
#include "stats/normalize.hpp"

namespace perspector::jobs {

namespace {

std::uint64_t fnv1a64(std::uint64_t hash, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fold_str(std::uint64_t hash, const std::string& s) {
  const std::uint64_t len = s.size();
  hash = fnv1a64(hash, &len, sizeof len);
  return fnv1a64(hash, s.data(), s.size());
}

std::uint64_t fold_u64(std::uint64_t hash, std::uint64_t v) {
  return fnv1a64(hash, &v, sizeof v);
}

/// Digests the outcome-determining spec fields into one 64-bit stream
/// rooted at `basis` (two bases give the two key words).
std::uint64_t digest_spec(const JobSpec& spec, std::uint64_t basis) {
  std::uint64_t hash = basis;
  hash = fold_str(hash, spec.builtin);
  hash = fold_u64(hash, spec.instructions);
  hash = fold_str(hash, spec.csv_name);
  hash = fold_str(hash, spec.csv_text);
  hash = fold_str(hash, spec.series_text);
  hash = fold_str(hash, spec.events);
  hash = fold_u64(hash, spec.target_size);
  hash = fold_u64(hash, spec.seed);
  return hash;
}

core::CounterMatrix resolve_suite(const JobSpec& spec) {
  if (!spec.builtin.empty()) {
    return core::simulate_builtin(spec.builtin, spec.instructions);
  }
  if (spec.csv_text.empty()) {
    throw std::invalid_argument(
        "job carries neither a built-in suite name nor CSV data");
  }
  const std::string name =
      spec.csv_name.empty() ? "uploaded" : spec.csv_name;
  if (!spec.series_text.empty()) {
    return core::read_with_series_csv_text(name, spec.csv_text,
                                           spec.series_text);
  }
  return core::read_aggregates_csv_text(name, spec.csv_text);
}

}  // namespace

SubsetSearch::SubsetSearch(const JobSpec& spec)
    : spec_(spec), suite_(resolve_suite(spec)) {
  if (spec_.candidates == 0) {
    throw std::invalid_argument("search needs candidates > 0");
  }
  if (spec_.target_size < 4) {
    throw std::invalid_argument(
        "target size must be >= 4 (ClusterScore needs it)");
  }
  if (spec_.target_size >= suite_.num_workloads()) {
    throw std::invalid_argument(
        "target size must be smaller than the suite (" +
        std::to_string(suite_.num_workloads()) + " workloads)");
  }
  scoring_.events = core::EventGroup::by_name(spec_.events);
  scoring_.compute_trend = suite_.has_series();
  engine_ = std::make_unique<core::Perspector>(scoring_);

  // Subsets are selected in the full normalized counter space, exactly
  // like core::select_subset; the event filter applies to scoring only.
  normalized_ = stats::minmax_normalize_columns(suite_.values());
  cdfs_.reserve(normalized_.cols());
  for (std::size_t c = 0; c < normalized_.cols(); ++c) {
    cdfs_.emplace_back(normalized_.col_copy(c));
  }

  spec_digest_hi_ = digest_spec(spec_, 0xcbf29ce484222325ull);
  spec_digest_lo_ = digest_spec(spec_, 0x84222325cbf29ce4ull);
}

SubsetSearch::~SubsetSearch() = default;

CandidateKey SubsetSearch::candidate_key(std::uint64_t index) const {
  CandidateKey key;
  key.hi = fold_u64(spec_digest_hi_, index);
  key.lo = fold_u64(spec_digest_lo_, index);
  return key;
}

CandidateOutcome SubsetSearch::evaluate(std::uint64_t index) {
  la::Matrix targets = sampling::latin_hypercube_candidate(
      spec_.target_size, normalized_.cols(), spec_.seed, index);
  // Quantile-map each unit-cube coordinate through the suite's own
  // per-counter distribution (paper Section IV-C; see select_lhs).
  for (std::size_t c = 0; c < targets.cols(); ++c) {
    for (std::size_t t = 0; t < targets.rows(); ++t) {
      targets(t, c) = cdfs_[c].quantile(targets(t, c));
    }
  }
  auto picked = sampling::match_nearest_distinct(targets, normalized_);
  std::sort(picked.begin(), picked.end());

  CandidateOutcome outcome;
  outcome.indices.assign(picked.begin(), picked.end());
  for (std::size_t i : picked) {
    outcome.names.push_back(suite_.workload_names()[i]);
  }

  // Score full suite and subset together so coverage/spread share the
  // joint normalization; the workspace re-serves the full suite's DTW
  // matrix across every candidate (core::generate_subset's layout).
  auto both = engine_->score_suites(
      {suite_, suite_.select_workloads(picked)}, workspace_);
  const auto& full = both[0];
  const auto& subset = both[1];

  const auto deviation = [](double sub, double whole) {
    if (whole == 0.0) return 0.0;
    return 100.0 * std::abs(sub - whole) / std::abs(whole);
  };
  outcome.per_score_deviation_pct = {
      deviation(subset.cluster, full.cluster),
      deviation(subset.trend, full.trend),
      deviation(subset.coverage, full.coverage),
      deviation(subset.spread, full.spread),
  };
  const std::vector<double> fulls = {full.cluster, full.trend, full.coverage,
                                     full.spread};
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (fulls[i] == 0.0) continue;  // metric skipped (e.g. no series)
    total += outcome.per_score_deviation_pct[i];
    ++counted;
  }
  outcome.deviation_pct =
      counted == 0 ? 0.0 : total / static_cast<double>(counted);
  return outcome;
}

BestCandidate run_search(const JobSpec& spec) {
  SubsetSearch search(spec);
  BestCandidate best;
  for (std::uint64_t i = 0; i < spec.candidates; ++i) {
    CandidateOutcome outcome = search.evaluate(i);
    if (!best.valid || outcome.deviation_pct < best.deviation_pct) {
      best.valid = true;
      best.candidate = i;
      best.deviation_pct = outcome.deviation_pct;
      best.per_score_deviation_pct = std::move(outcome.per_score_deviation_pct);
      best.indices = std::move(outcome.indices);
      best.names = std::move(outcome.names);
    }
  }
  return best;
}

}  // namespace perspector::jobs
