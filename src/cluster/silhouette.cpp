#include "cluster/silhouette.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cluster/kmeans.hpp"
#include "mem/workspace.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"

namespace perspector::cluster {

namespace {

void validate(std::size_t points, const std::vector<std::size_t>& labels,
              std::size_t k) {
  if (labels.size() != points) {
    throw std::invalid_argument("silhouette: labels/points size mismatch");
  }
  for (std::size_t label : labels) {
    if (label >= k) {
      throw std::invalid_argument("silhouette: label out of range");
    }
  }
}

}  // namespace

std::vector<double> silhouette_values_from_distances(
    const la::Matrix& dist, const std::vector<std::size_t>& labels,
    std::size_t k) {
  validate(dist.rows(), labels, k);
  const std::size_t n = dist.rows();
  std::vector<double> values(n, 0.0);
  if (k <= 1 || n == 0) return values;
  static obs::Counter& evaluations = obs::counter("silhouette.evaluations");
  evaluations.add(n);

  const auto sizes = cluster_sizes(labels, k);

  // Each point's silhouette depends only on the (read-only) distance matrix
  // and labels; values[p] is the task's only write, so any thread count
  // produces the same bits.
  par::parallel_for(n, [&](std::size_t p) {
    const std::size_t own = labels[p];
    if (sizes[own] <= 1) {
      values[p] = 0.0;  // singleton cluster
      return;
    }
    // Mean distance to every other cluster; intra handled separately. The
    // k-sized accumulator comes from the per-thread scratch pool — this
    // body runs once per point per k, so a heap allocation here used to be
    // the silhouette's dominant allocator traffic.
    mem::Scratch<double> sum_to(k);
    std::fill(sum_to.data(), sum_to.data() + k, 0.0);
    for (std::size_t q = 0; q < n; ++q) {
      if (q == p) continue;
      sum_to[labels[q]] += dist(p, q);
    }
    const double eta =
        sum_to[own] / static_cast<double>(sizes[own] - 1);  // Eq. 1
    double lambda = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == own || sizes[c] == 0) continue;
      lambda = std::min(lambda, sum_to[c] / static_cast<double>(sizes[c]));
    }
    if (!std::isfinite(lambda)) {
      values[p] = 0.0;  // every other cluster empty
      return;
    }
    const double denom = std::max(lambda, eta);  // Eq. 3
    values[p] = denom == 0.0 ? 0.0 : (lambda - eta) / denom;
  });
  return values;
}

std::vector<double> silhouette_values(const la::Matrix& points,
                                      const std::vector<std::size_t>& labels,
                                      std::size_t k) {
  validate(points.rows(), labels, k);
  if (k <= 1 || points.rows() == 0) {
    return std::vector<double>(points.rows(), 0.0);
  }
  return silhouette_values_from_distances(la::pairwise_distances(points),
                                          labels, k);
}

namespace {

std::vector<double> per_cluster_from_values(
    const std::vector<double>& values, const std::vector<std::size_t>& labels,
    std::size_t k) {
  std::vector<double> totals(k, 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    totals[labels[i]] += values[i];
    ++counts[labels[i]];
  }
  for (std::size_t c = 0; c < k; ++c) {
    totals[c] = counts[c] == 0 ? 0.0 : totals[c] / static_cast<double>(counts[c]);
  }
  return totals;
}

double score_from_per_cluster(const std::vector<double>& per_cluster,
                              std::size_t k) {
  double total = 0.0;
  for (double s : per_cluster) total += s;
  return total / static_cast<double>(k);  // Eq. 5
}

}  // namespace

std::vector<double> silhouette_per_cluster(
    const la::Matrix& points, const std::vector<std::size_t>& labels,
    std::size_t k) {
  return per_cluster_from_values(silhouette_values(points, labels, k), labels,
                                 k);
}

std::vector<double> silhouette_per_cluster_from_distances(
    const la::Matrix& dist, const std::vector<std::size_t>& labels,
    std::size_t k) {
  return per_cluster_from_values(
      silhouette_values_from_distances(dist, labels, k), labels, k);
}

double silhouette_score(const la::Matrix& points,
                        const std::vector<std::size_t>& labels,
                        std::size_t k) {
  if (k <= 1) return 0.0;
  return score_from_per_cluster(silhouette_per_cluster(points, labels, k), k);
}

double silhouette_score_from_distances(const la::Matrix& dist,
                                       const std::vector<std::size_t>& labels,
                                       std::size_t k) {
  if (k <= 1) return 0.0;
  return score_from_per_cluster(
      silhouette_per_cluster_from_distances(dist, labels, k), k);
}

double silhouette_score_pointwise(const la::Matrix& points,
                                  const std::vector<std::size_t>& labels,
                                  std::size_t k) {
  if (k <= 1) return 0.0;
  const auto values = silhouette_values(points, labels, k);
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

}  // namespace perspector::cluster
