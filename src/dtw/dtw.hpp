// Dynamic Time Warping (Berndt & Clifford 1994).
//
// The TrendScore (paper Eq. 7-8) measures pairwise DTW distance between
// normalized counter time series. Both the exact O(N*M) dynamic program and
// a Sakoe-Chiba banded variant are provided; warping paths can be extracted
// for diagnostics.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.hpp"

namespace perspector::dtw {

/// Options for a DTW computation.
struct DtwOptions {
  /// Sakoe-Chiba band half-width as a fraction of the longer series length;
  /// nullopt means the full (unconstrained) dynamic program.
  std::optional<double> band_fraction;
  /// When true, the distance is divided by the warping-path length, making
  /// series of different lengths comparable.
  bool path_normalized = false;
};

/// Result of a DTW computation.
struct DtwResult {
  double distance = 0.0;       // accumulated |a_i - b_j| along optimal path
  std::size_t path_length = 0; // number of matched index pairs
};

/// DTW distance between two series with absolute-difference local cost.
/// Distance-only wavefront kernel: keeps three anti-diagonals of cost (and
/// of path length) in per-thread scratch buffers instead of materializing
/// the full (n+1)x(m+1) table, and returns distances bit-identical to
/// dtw_with_path. The single-pair reference; many pairs go through
/// dtw_distances.
/// Throws std::invalid_argument if either series is empty, or if the band is
/// too narrow to connect the corners.
DtwResult dtw_distance(std::span<const double> a, std::span<const double> b,
                       const DtwOptions& options = {});

/// One pair of series for dtw_distances.
struct DtwPair {
  std::span<const double> a;
  std::span<const double> b;
};

/// Distances of many pairs: out[p] is bit-identical to
/// dtw_distance(pairs[p].a, pairs[p].b, options).distance, dtw.calls and
/// dtw.cells advance exactly as pairs.size() such calls would, and a
/// failing pair throws what that call throws (the lowest-indexed failure
/// wins). Pairs sharing one (a.size(), b.size()) shape run several per
/// SIMD vector (DESIGN.md section 9); blocks are spread over the par::
/// pool and write only their own slots, so out does not depend on the
/// thread count. Throws std::invalid_argument if out.size() !=
/// pairs.size().
void dtw_distances(std::span<const DtwPair> pairs, const DtwOptions& options,
                   std::span<double> out);

namespace detail {

/// Lane bodies of dtw_distances. Production picks the widest one the CPU
/// supports, once; tests run each through dtw_distances_with.
enum class LaneIsa { scalar, avx2, avx512f };

bool lane_isa_supported(LaneIsa isa);

/// dtw_distances through one chosen body. Throws std::invalid_argument if
/// the CPU lacks its ISA.
void dtw_distances_with(LaneIsa isa, std::span<const DtwPair> pairs,
                        const DtwOptions& options, std::span<double> out);

}  // namespace detail

/// DTW with the optimal warping path ((i, j) index pairs from (0,0) to
/// (len(a)-1, len(b)-1)).
struct DtwPathResult {
  double distance = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> path;
};
DtwPathResult dtw_with_path(std::span<const double> a,
                            std::span<const double> b,
                            const DtwOptions& options = {});

/// Mean pairwise DTW distance over a set of series — the inner sum of the
/// paper's Eq. 7 for a single counter. Requires at least two series.
double mean_pairwise_dtw(const std::vector<std::vector<double>>& series,
                         const DtwOptions& options = {});

/// Full pairwise DTW distance matrix over a set of series (symmetric, zero
/// diagonal). The cache layer (core::ScoringWorkspace) computes this once
/// per counter and slices sub-matrices for subset/resample scoring.
la::Matrix pairwise_dtw_matrix(const std::vector<std::vector<double>>& series,
                               const DtwOptions& options = {});

}  // namespace perspector::dtw
