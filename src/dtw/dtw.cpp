#include "dtw/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "mem/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"

// The lane bodies below are compiled with per-function target attributes
// and picked at runtime, so the translation unit never needs -mavx2 or
// -mavx512f (a global flag would license FMA contraction elsewhere and
// change bits).
#if defined(__GNUC__) && defined(__x86_64__)
#define PERSPECTOR_DTW_X86 1
#endif

namespace perspector::dtw {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t band_width(std::size_t n, std::size_t m,
                       const DtwOptions& options) {
  if (!options.band_fraction) return std::max(n, m);  // effectively unbounded
  if (*options.band_fraction < 0.0 || *options.band_fraction > 1.0) {
    throw std::invalid_argument("dtw: band_fraction must be in [0,1]");
  }
  const auto longest = static_cast<double>(std::max(n, m));
  auto w = static_cast<std::size_t>(std::ceil(*options.band_fraction * longest));
  // The band must at least cover the length difference or the corners are
  // unreachable.
  const std::size_t diff = n > m ? n - m : m - n;
  return std::max(w, diff);
}

// ---------------------------------------------------------------------------
// Single-pair reference kernel: distance-only, anti-diagonal (wavefront)
// order.
//
// On the anti-diagonal d = i + j all predecessors live on diagonals d-1 and
// d-2, so the cells of one diagonal are mutually independent. Each cell
// evaluates the exact expression the full-table kernel evaluates — local +
// min{up, left, diag} on the same doubles, only in a different cell *order*
// — so the distance is bit-identical to dtw_with_path. The path length
// replays the backtracker's tie-break (diag, then up, then left) forward
// with the same comparisons, carried as exact small integers in doubles.
//
// Diagonal buffers are indexed by i; buffer_d[i] = cell (i, d - i). Every
// all-pairs caller goes through the lane-batched kernel further down; this
// one serves single calls, path_normalized and mixed-shape pairs.
// ---------------------------------------------------------------------------

struct KernelOut {
  double cost;
  double path_length;
  std::uint64_t cells;
};

// In-band cells of diagonal d: i >= 1, j = d - i in [1, m], |2i - d| <= w.
inline void diagonal_range(std::size_t d, std::size_t n, std::size_t m,
                           std::size_t w, std::size_t& i_lo,
                           std::size_t& i_hi) {
  i_lo = 1;
  if (d > m) i_lo = std::max(i_lo, d - m);
  if (d > w) i_lo = std::max(i_lo, (d - w + 1) / 2);
  i_hi = std::min({n, d - 1, (d + w) / 2});
}

inline void rotate3(double*& x2, double*& x1, double*& x0) {
  double* const t = x2;
  x2 = x1;
  x1 = x0;
  x0 = t;
}

// The i-range shifts by at most one per diagonal, so later diagonals only
// read a buffer inside [i_lo - 1, i_hi + 1]: two sentinel writes replace a
// full-buffer infinity fill (the memory traffic a full table pays). They
// also cover the i = 0 / j = 0 border cells.
//
// Predecessor select in the backtracker's preference order (diag, then up,
// then left). The selected value IS the minimum — diag_best means diag <=
// both others, else up_best picks min(up, left) — so the cost matches
// min{up, left, diag} bit for bit, and the length select rides the same
// conditions.
KernelOut dtw_kernel_scalar(const double* a, const double* b, std::size_t n,
                            std::size_t m, std::size_t w, double* c2,
                            double* c1, double* c0, double* l2, double* l1,
                            double* l0) {
  std::uint64_t cells = 0;
  for (std::size_t d = 2; d <= n + m; ++d) {
    std::size_t i_lo, i_hi;
    diagonal_range(d, n, m, w, i_lo, i_hi);
    c0[i_lo - 1] = kInf;
    if (i_hi + 1 <= n) c0[i_hi + 1] = kInf;
    if (i_hi >= i_lo) cells += i_hi - i_lo + 1;
    for (std::size_t i = i_lo; i <= i_hi; ++i) {
      const double local = std::abs(a[i - 1] - b[d - i - 1]);
      const double up = c1[i - 1];    // cost(i-1, j)
      const double left = c1[i];      // cost(i, j-1)
      const double diag = c2[i - 1];  // cost(i-1, j-1)
      const bool diag_best = (diag <= up) & (diag <= left);
      const bool up_best = up <= left;
      const double best = diag_best ? diag : (up_best ? up : left);
      c0[i] = local + best;
      l0[i] = 1.0 + (diag_best ? l2[i - 1] : (up_best ? l1[i - 1] : l1[i]));
    }
    rotate3(c2, c1, c0);
    rotate3(l2, l1, l0);
  }
  return {c1[n], l1[n], cells};
}

// ---------------------------------------------------------------------------
// Lane-batched kernel: S = L * G pairs of one shape (n, m) at once.
//
// All-pairs callers run thousands of independent DTWs of the same length.
// Lane s of every vector belongs to pair s, so a row-major DP over cells
// (i, j) advances S pairs per cell with no shuffles. The row-major chain
// cost(i, j) -> cost(i, j+1) is a min + add latency round trip; G
// independent vectors per cell hide it. Only cost is tracked: no
// all-pairs caller reads the path length.
//
// Packed layout: a[i*S + s] = pairs[s].a[i], b[j*S + s] = pairs[s].b[j],
// rows[j*S + s] = cost(i, j) of pair s.
//
// Bit identity with dtw_distance: every cell is local + best over the same
// predecessor values, computed in a different order. The reference picks
// best = diag if diag <= up and diag <= left, else up if up <= left, else
// left. Here t = vmin(diag, up), best = vmin(t, left), with vmin(x, y) =
// x < y ? x : y (the MINPD rule, which the compiler emits for it). Case by
// case, including NaN (every comparison with a NaN is false): both forms
// pick the same operand except where the two candidates compare equal, and
// equal non-NaN doubles differ in bits only as +0.0 / -0.0. No cost is ever
// -0.0: cost(0,0) is +0.0, borders are +inf, and local = |a - b| has its
// sign bit clear, so every sum is +0.0, positive, +inf or NaN. The band is
// dtw_with_path's |i - j| <= w rule. DESIGN.md section 9 has the cases.
// ---------------------------------------------------------------------------

template <int L>
struct Lanes {
  typedef double Vec __attribute__((vector_size(8 * L)));
  typedef std::uint64_t Bits __attribute__((vector_size(8 * L)));
};
template <>
struct Lanes<1> {
  using Vec = double;
  using Bits = std::uint64_t;
};

// Always inlined into each target-attributed body below, so the generic
// vector operations are lowered for that body's ISA.
template <int L, int G>
[[gnu::always_inline]] inline void lane_kernel(const double* a,
                                               const double* b, std::size_t n,
                                               std::size_t m, std::size_t w,
                                               double* prev, double* cur,
                                               double* cost) {
  using V = typename Lanes<L>::Vec;
  using U = typename Lanes<L>::Bits;
  constexpr std::size_t S = std::size_t{L} * G;
  const V inf = V{} + kInf;
  const U magnitude = U{} + 0x7fffffffffffffffULL;  // clears the sign bit
  std::fill(prev, prev + S, 0.0);                  // cost(0, 0)
  std::fill(prev + S, prev + (m + 1) * S, kInf);   // cost(0, j >= 1)
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t j_lo = i > w ? i - w : 1;
    const std::size_t j_hi = std::min(m, i + w);
    // Sentinels left and right of the band; the next row reads no further.
    std::fill(cur + (j_lo - 1) * S, cur + j_lo * S, kInf);
    if (j_hi < m) std::fill(cur + (j_hi + 1) * S, cur + (j_hi + 2) * S, kInf);
    V av[G], left[G], diag[G];
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
      std::memcpy(&av[g], a + (i - 1) * S + g * L, sizeof(V));
      std::memcpy(&diag[g], prev + (j_lo - 1) * S + g * L, sizeof(V));
      left[g] = inf;
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
#pragma GCC unroll 8
      for (int g = 0; g < G; ++g) {
        V up, bv, local;
        std::memcpy(&up, prev + j * S + g * L, sizeof(V));
        std::memcpy(&bv, b + (j - 1) * S + g * L, sizeof(V));
        if constexpr (L == 1) {
          local = std::abs(av[g] - bv);
        } else {
          const U diff = reinterpret_cast<U>(av[g] - bv) & magnitude;
          local = reinterpret_cast<V>(diff);
        }
        const V t = diag[g] < up ? diag[g] : up;
        left[g] = local + (t < left[g] ? t : left[g]);
        diag[g] = up;
        std::memcpy(cur + j * S + g * L, &left[g], sizeof(V));
      }
    }
    std::swap(prev, cur);
  }
  std::copy(prev + m * S, prev + (m + 1) * S, cost);
}

using LaneFn = void (*)(const double*, const double*, std::size_t,
                        std::size_t, std::size_t, double*, double*, double*);

struct LaneBody {
  std::size_t lanes;  // pairs per block, L * G
  LaneFn run;
};

constexpr int kScalarGroups = 4;
constexpr int kAvx2Groups = 4;
constexpr int kAvx512Groups = 2;

void lanes_scalar(const double* a, const double* b, std::size_t n,
                  std::size_t m, std::size_t w, double* prev, double* cur,
                  double* cost) {
  lane_kernel<1, kScalarGroups>(a, b, n, m, w, prev, cur, cost);
}

#ifdef PERSPECTOR_DTW_X86
__attribute__((target("avx2"))) void lanes_avx2(
    const double* a, const double* b, std::size_t n, std::size_t m,
    std::size_t w, double* prev, double* cur, double* cost) {
  lane_kernel<4, kAvx2Groups>(a, b, n, m, w, prev, cur, cost);
}

__attribute__((target("avx512f"))) void lanes_avx512(
    const double* a, const double* b, std::size_t n, std::size_t m,
    std::size_t w, double* prev, double* cur, double* cost) {
  lane_kernel<8, kAvx512Groups>(a, b, n, m, w, prev, cur, cost);
}
#endif

LaneBody lane_body_for(detail::LaneIsa isa) {
#ifdef PERSPECTOR_DTW_X86
  if (isa == detail::LaneIsa::avx2) return {4 * kAvx2Groups, lanes_avx2};
  if (isa == detail::LaneIsa::avx512f) return {8 * kAvx512Groups, lanes_avx512};
#endif
  (void)isa;
  return {kScalarGroups, lanes_scalar};
}

// Cells of one banded DP, row by row (the set the wavefront visits).
std::uint64_t band_cells(std::size_t n, std::size_t m, std::size_t w) {
  std::uint64_t cells = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    cells += std::min(m, i + w) - (i > w ? i - w : 1) + 1;
  }
  return cells;
}

// One block of at most body.lanes pairs. A block whose pairs do not share
// one non-empty shape, or that needs path lengths, takes dtw_distance per
// pair; otherwise the ragged tail is padded with repeats of the last pair
// and the padded lanes are discarded.
void run_block(const LaneBody& body, std::span<const DtwPair> pairs,
               const DtwOptions& options, double* out) {
  const std::size_t n = pairs[0].a.size();
  const std::size_t m = pairs[0].b.size();
  const bool same_shape = std::all_of(
      pairs.begin(), pairs.end(),
      [&](const DtwPair& p) { return p.a.size() == n && p.b.size() == m; });
  if (!same_shape || n == 0 || m == 0 || options.path_normalized) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      out[p] = dtw_distance(pairs[p].a, pairs[p].b, options).distance;
    }
    return;
  }
  const std::size_t w = band_width(n, m, options);
  const std::size_t stride = body.lanes;
  mem::Scratch<double> a(n * stride), b(m * stride);
  mem::Scratch<double> rows(2 * (m + 1) * stride), cost(stride);
  for (std::size_t s = 0; s < stride; ++s) {
    const DtwPair& pair = pairs[std::min(s, pairs.size() - 1)];
    for (std::size_t i = 0; i < n; ++i) a.data()[i * stride + s] = pair.a[i];
    for (std::size_t j = 0; j < m; ++j) b.data()[j * stride + s] = pair.b[j];
  }
  body.run(a.data(), b.data(), n, m, w, rows.data(),
           rows.data() + (m + 1) * stride, cost.data());

  static obs::Counter& calls = obs::counter("dtw.calls");
  static obs::Counter& cells = obs::counter("dtw.cells");
  calls.add(pairs.size());
  cells.add(pairs.size() * band_cells(n, m, w));
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (!std::isfinite(cost.data()[p])) {
      throw std::invalid_argument("dtw: band too narrow to connect endpoints");
    }
    out[p] = cost.data()[p];
  }
}

void run_batch(const LaneBody& body, std::span<const DtwPair> pairs,
               const DtwOptions& options, std::span<double> out) {
  if (out.size() != pairs.size()) {
    throw std::invalid_argument("dtw_distances: out size != pairs size");
  }
  const std::size_t blocks = (pairs.size() + body.lanes - 1) / body.lanes;
  // Block k owns pairs [k * lanes, ...) and their output slots, so the
  // result does not depend on the thread count.
  par::parallel_for(blocks, [&](std::size_t k) {
    const std::size_t first = k * body.lanes;
    const std::size_t count = std::min(body.lanes, pairs.size() - first);
    run_block(body, pairs.subspan(first, count), options, out.data() + first);
  });
}

detail::LaneIsa widest_supported_isa() {
  for (const auto isa : {detail::LaneIsa::avx512f, detail::LaneIsa::avx2}) {
    if (detail::lane_isa_supported(isa)) return isa;
  }
  return detail::LaneIsa::scalar;
}

// Every caller enumerates pairs (i asc, j asc).
std::vector<DtwPair> all_pairs(const std::vector<std::vector<double>>& series) {
  std::vector<DtwPair> pairs;
  pairs.reserve(series.size() * (series.size() - 1) / 2);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = i + 1; j < series.size(); ++j) {
      pairs.push_back({series[i], series[j]});
    }
  }
  return pairs;
}

}  // namespace

DtwResult dtw_distance(std::span<const double> a, std::span<const double> b,
                       const DtwOptions& options) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("dtw: empty series");
  }
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t w = band_width(n, m, options);

  // Scratch comes from the per-thread pool (src/mem/), so the only
  // allocation is the first call on each thread.
  mem::Scratch<double> cost_0(n + 1), cost_1(n + 1), cost_2(n + 1);
  mem::Scratch<double> len_0(n + 1), len_1(n + 1), len_2(n + 1);
  double* c2 = cost_2.data();  // diagonal d-2
  double* c1 = cost_1.data();  // diagonal d-1
  double* c0 = cost_0.data();  // diagonal d (being written)
  double* l2 = len_2.data();
  double* l1 = len_1.data();
  double* l0 = len_0.data();

  // Diagonal 0 holds only cell (0,0) = 0; diagonal 1 holds the sentinel
  // cells (0,1) and (1,0) = inf. Scratch contents are unspecified, so the
  // length buffers are zeroed once: a length slot is only ever *used*
  // through a finite-cost predecessor, but unreachable in-band cells (all
  // predecessors infinite) still copy a slot and must not read
  // indeterminate memory. After the first rotations those slots hold stale
  // lengths — initialized, deterministic, and dead, since the cost they
  // travel with stays infinite and the final cell is checked finite.
  std::fill(c2, c2 + n + 1, kInf);
  std::fill(c1, c1 + n + 1, kInf);
  std::fill(l2, l2 + n + 1, 0.0);
  std::fill(l1, l1 + n + 1, 0.0);
  std::fill(l0, l0 + n + 1, 0.0);
  c2[0] = 0.0;

  const KernelOut out =
      dtw_kernel_scalar(a.data(), b.data(), n, m, w, c2, c1, c0, l2, l1, l0);

  static obs::Counter& calls = obs::counter("dtw.calls");
  static obs::Counter& cells = obs::counter("dtw.cells");
  calls.increment();
  cells.add(out.cells);

  // Cell (n, m) sits on the last diagonal.
  if (!std::isfinite(out.cost)) {
    throw std::invalid_argument("dtw: band too narrow to connect endpoints");
  }

  DtwResult r;
  r.path_length = static_cast<std::size_t>(out.path_length);
  r.distance = options.path_normalized && r.path_length > 0
                   ? out.cost / static_cast<double>(r.path_length)
                   : out.cost;
  return r;
}

DtwPathResult dtw_with_path(std::span<const double> a,
                            std::span<const double> b,
                            const DtwOptions& options) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("dtw: empty series");
  }
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t w = band_width(n, m, options);

  // Full DP table (series here are hundreds of points, memory is fine) with
  // one sentinel row/column of infinity. Only callers that need the warping
  // path pay for the table; distance-only callers take the wavefront kernel
  // above (the dtw.full_table.* counters keep the two paths auditable).
  std::vector<double> cost((n + 1) * (m + 1), kInf);
  auto at = [m](std::size_t i, std::size_t j) -> std::size_t {
    return i * (m + 1) + j;
  };
  cost[at(0, 0)] = 0.0;

  std::uint64_t cells_visited = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t j_lo = i > w ? i - w : 1;
    const std::size_t j_hi = std::min(m, i + w);
    if (j_hi >= j_lo) cells_visited += j_hi - j_lo + 1;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double local = std::abs(a[i - 1] - b[j - 1]);
      const double best = std::min({cost[at(i - 1, j)], cost[at(i, j - 1)],
                                    cost[at(i - 1, j - 1)]});
      cost[at(i, j)] = local + best;
    }
  }
  static obs::Counter& calls = obs::counter("dtw.calls");
  static obs::Counter& cells = obs::counter("dtw.cells");
  static obs::Counter& full_calls = obs::counter("dtw.full_table.calls");
  static obs::Counter& full_cells = obs::counter("dtw.full_table.cells");
  calls.increment();
  cells.add(cells_visited);
  full_calls.increment();
  full_cells.add(cells_visited);

  if (!std::isfinite(cost[at(n, m)])) {
    throw std::invalid_argument("dtw: band too narrow to connect endpoints");
  }

  DtwPathResult result;
  result.distance = cost[at(n, m)];

  // Backtrack the optimal path.
  std::size_t i = n, j = m;
  while (i > 0 && j > 0) {
    result.path.emplace_back(i - 1, j - 1);
    const double diag = cost[at(i - 1, j - 1)];
    const double up = cost[at(i - 1, j)];
    const double left = cost[at(i, j - 1)];
    if (diag <= up && diag <= left) {
      --i;
      --j;
    } else if (up <= left) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

double mean_pairwise_dtw(const std::vector<std::vector<double>>& series,
                         const DtwOptions& options) {
  if (series.size() < 2) {
    throw std::invalid_argument("mean_pairwise_dtw: need at least 2 series");
  }
  obs::Span span("dtw.mean_pairwise");
  const std::size_t n = series.size();
  const std::size_t pairs = n * (n - 1) / 2;
  static obs::Counter& pair_count = obs::counter("dtw.pairs");
  pair_count.add(pairs);

  // Distances land in index-owned slots and are summed in (i asc, j asc)
  // order, so the result is bit-identical for any thread count.
  std::vector<double> distance(pairs);
  dtw_distances(all_pairs(series), options, distance);
  double total = 0.0;
  for (double d : distance) total += d;
  // Eq. 7 sums over ordered pairs and divides by n*(n-1); with a symmetric
  // distance that equals the unordered-pair mean computed here.
  return total / static_cast<double>(pairs);
}

la::Matrix pairwise_dtw_matrix(const std::vector<std::vector<double>>& series,
                               const DtwOptions& options) {
  const std::size_t n = series.size();
  la::Matrix d(n, n, 0.0);
  if (n < 2) return d;
  obs::Span span("dtw.pairwise_matrix");
  const std::size_t pairs = n * (n - 1) / 2;
  static obs::Counter& pair_count = obs::counter("dtw.pairs");
  pair_count.add(pairs);

  std::vector<double> distance(pairs);
  dtw_distances(all_pairs(series), options, distance);
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      d(i, j) = distance[p];
      d(j, i) = distance[p];
    }
  }
  return d;
}

void dtw_distances(std::span<const DtwPair> pairs, const DtwOptions& options,
                   std::span<double> out) {
  static const LaneBody body = lane_body_for(widest_supported_isa());
  run_batch(body, pairs, options, out);
}

namespace detail {

bool lane_isa_supported(LaneIsa isa) {
#ifdef PERSPECTOR_DTW_X86
  if (isa == LaneIsa::avx2) return __builtin_cpu_supports("avx2");
  if (isa == LaneIsa::avx512f) return __builtin_cpu_supports("avx512f");
#endif
  return isa == LaneIsa::scalar;
}

void dtw_distances_with(LaneIsa isa, std::span<const DtwPair> pairs,
                        const DtwOptions& options, std::span<double> out) {
  if (!lane_isa_supported(isa)) {
    throw std::invalid_argument("dtw_distances_with: ISA not supported");
  }
  run_batch(lane_body_for(isa), pairs, options, out);
}

}  // namespace detail

}  // namespace perspector::dtw
