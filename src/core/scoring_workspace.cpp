#include "core/scoring_workspace.hpp"

#include <stdexcept>
#include <utility>

#include "dtw/dtw.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"

namespace perspector::core {

namespace {

bool same_options(const TrendScoreOptions& a, const TrendScoreOptions& b) {
  return a.grid_points == b.grid_points && a.normalization == b.normalization &&
         a.dtw_band_fraction == b.dtw_band_fraction;
}

}  // namespace

void ScoringWorkspace::prime_trend(const CounterMatrix& suite,
                                   const TrendScoreOptions& options) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (trend_primed_.load(std::memory_order_relaxed)) return;

  static obs::Counter& primes = obs::counter("cache.primes");
  const std::size_t n = suite.num_workloads();
  const std::size_t m = suite.num_counters();

  // Disqualifying shapes leave the cache primed-but-unusable; lookups then
  // miss and callers take the direct path (including its error behaviour).
  bool usable = suite.has_series() && n >= 2 && m >= 1;
  if (usable) {
    for (std::size_t w = 0; w < n; ++w) {
      if (!row_by_name_.emplace(suite.workload_names()[w], w).second) {
        usable = false;  // duplicate names make the mapping ambiguous
        row_by_name_.clear();
        break;
      }
    }
  }

  if (usable) {
    obs::Span span("cache.prime_trend");
    // Kernel-latency histogram companion to the span: always on, so the
    // stats op reports prime cost even when the tracer is disabled.
    static obs::Histogram& prime_latency =
        obs::histogram("cache.prime.latency");
    obs::LatencyTimer timer(prime_latency);
    counters_ = suite.counter_names();
    options_ = options;

    // Normalized trends: one per (workload, counter), each an independent
    // slot — deterministic for any thread count.
    trends_.resize(n * m);
    par::parallel_for(n * m, [&](std::size_t t) {
      trends_[t] =
          dtw::normalize_trend(suite.series(t / m, t % m), options.grid_points,
                               options.normalization);
    });

    // Full pairwise DTW matrices, flattened over (counter, pair) so the
    // whole prime is one batch; pair t = c * pairs + p lands in slot t and
    // is scattered to (i, j) and (j, i) of its own counter matrix.
    dtw::DtwOptions dtw_options;
    dtw_options.band_fraction = options.dtw_band_fraction;
    const std::size_t pairs = n * (n - 1) / 2;
    std::vector<dtw::DtwPair> work;
    work.reserve(m * pairs);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          work.push_back({trends_[i * m + c], trends_[j * m + c]});
        }
      }
    }
    std::vector<double> dist(work.size());
    dtw::dtw_distances(work, dtw_options, dist);
    per_counter_.assign(m, la::Matrix(n, n, 0.0));
    for (std::size_t c = 0, t = 0; c < m; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j, ++t) {
          per_counter_[c](i, j) = dist[t];
          per_counter_[c](j, i) = dist[t];
        }
      }
    }
    primes.increment();
  }

  trend_usable_ = usable;
  trend_primed_.store(true, std::memory_order_release);
}

bool ScoringWorkspace::upsert_row(const CounterMatrix& suite, std::size_t row,
                                  const TrendScoreOptions& options) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (!trend_primed_.load(std::memory_order_relaxed) || !trend_usable_) {
    return false;
  }
  if (!same_options(options, options_)) return false;
  if (!suite.has_series()) return false;
  if (suite.counter_names() != counters_) return false;
  if (row >= suite.num_workloads()) return false;

  static obs::Counter& upserts = obs::counter("cache.delta_upserts");
  obs::Span span("cache.delta_upsert");

  const std::size_t m = counters_.size();
  const std::size_t r = trends_.size() / m;  // the new primed row's index

  // Fresh normalized trends for the (re)computed workload.
  std::vector<std::vector<double>> fresh(m);
  par::parallel_for(m, [&](std::size_t c) {
    fresh[c] = dtw::normalize_trend(suite.series(row, c), options_.grid_points,
                                    options_.normalization);
  });

  // Live rows in name-sorted (deterministic) order; rows superseded or
  // dropped earlier stay allocated but get no new distances.
  std::vector<std::size_t> live;
  live.reserve(row_by_name_.size());
  for (const auto& [name, index] : row_by_name_) live.push_back(index);

  // Grow each per-counter matrix by one row/column (diagonal stays 0).
  for (la::Matrix& d : per_counter_) {
    la::Matrix grown(r + 1, r + 1, 0.0);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < r; ++j) grown(i, j) = d(i, j);
    }
    d = std::move(grown);
  }

  // One DTW strip — the new row against every live row, all counters — as
  // a single batch; pair t = c * k + (index of j in live) fills (j, r) and
  // (r, j).
  dtw::DtwOptions dtw_options;
  dtw_options.band_fraction = options_.dtw_band_fraction;
  const std::size_t k = live.size();
  std::vector<dtw::DtwPair> work;
  work.reserve(m * k);
  for (std::size_t c = 0; c < m; ++c) {
    for (const std::size_t j : live) {
      work.push_back({trends_[j * m + c], fresh[c]});
    }
  }
  std::vector<double> dist(work.size());
  dtw::dtw_distances(work, dtw_options, dist);
  for (std::size_t t = 0; t < work.size(); ++t) {
    const std::size_t c = t / k;
    const std::size_t j = live[t % k];
    per_counter_[c](j, r) = dist[t];
    per_counter_[c](r, j) = dist[t];
  }

  trends_.reserve(trends_.size() + m);
  for (std::size_t c = 0; c < m; ++c) trends_.push_back(std::move(fresh[c]));
  row_by_name_.insert_or_assign(suite.workload_names()[row], r);
  upserts.increment();
  return true;
}

bool ScoringWorkspace::remove_row(const std::string& workload) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (!trend_primed_.load(std::memory_order_relaxed) || !trend_usable_) {
    return false;
  }
  static obs::Counter& drops = obs::counter("cache.delta_drops");
  if (row_by_name_.erase(workload) == 0) return false;
  drops.increment();
  return true;
}

bool ScoringWorkspace::map_rows(const CounterMatrix& suite,
                                const TrendScoreOptions& options,
                                std::vector<std::size_t>& rows) const {
  if (!trend_primed() || !trend_usable_) return false;
  if (!same_options(options, options_)) return false;
  if (!suite.has_series()) return false;
  if (suite.counter_names() != counters_) return false;

  const std::size_t s = suite.num_workloads();
  const std::size_t m = counters_.size();
  rows.resize(s);
  for (std::size_t w = 0; w < s; ++w) {
    const auto it = row_by_name_.find(suite.workload_names()[w]);
    if (it == row_by_name_.end()) return false;
    rows[w] = it->second;
  }

  // The decisive check: every candidate row must normalize to exactly the
  // trend the primed row normalized to — then the direct DTW evaluation
  // would reproduce the cached doubles bit for bit. Each (w, c) slot is
  // verified independently; mismatch flags land in index-owned slots.
  std::vector<char> ok(s * m, 0);
  par::parallel_for(s * m, [&](std::size_t t) {
    const std::size_t w = t / m;
    const std::size_t c = t % m;
    ok[t] = dtw::normalize_trend(suite.series(w, c), options_.grid_points,
                                 options_.normalization) ==
            trends_[rows[w] * m + c];
  });
  for (char flag : ok) {
    if (!flag) return false;
  }
  return true;
}

TrendScoreResult ScoringWorkspace::trend_score_from_cache(
    std::span<const std::size_t> rows) const {
  if (!trend_primed() || !trend_usable_) {
    throw std::logic_error("trend_score_from_cache: cache not primed");
  }
  if (rows.size() < 2) {
    throw std::invalid_argument("trend_score: need at least 2 workloads");
  }
  obs::Span span("trend_score.cached");
  const std::size_t m = counters_.size();
  const std::size_t s = rows.size();
  const std::size_t pairs = s * (s - 1) / 2;

  TrendScoreResult result;
  result.per_event.resize(m);
  // Mirrors trend_score: counters are independent tasks; within one, pair
  // distances accumulate in (i asc, j asc) order — the exact association
  // of the direct Eq. 7 sum, now over cached doubles.
  par::parallel_for(m, [&](std::size_t c) {
    const la::Matrix& d = per_counter_[c];
    double total = 0.0;
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = i + 1; j < s; ++j) {
        total += d(rows[i], rows[j]);
      }
    }
    result.per_event[c] = total / static_cast<double>(pairs);  // Eq. 7
  });
  double total = 0.0;
  for (double t_score : result.per_event) total += t_score;
  result.score = total / static_cast<double>(m);  // Eq. 8
  return result;
}

}  // namespace perspector::core
