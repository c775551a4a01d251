// Shared pieces of the benchmark runner: run options, the result printer,
// the in-memory span recorder of the traced run, order statistics,
// digests and obs-registry deltas.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 4;
  /// Shrinks every input and phase for the self-tests (1.0 = full size).
  double scale = 1.0;
  /// serve_mix self-test seam: the server sleeps this long before
  /// answering the request with id `stall_at` (0 = never stalls).
  std::uint64_t stall_ms = 0;
  std::uint64_t stall_at = 0;
  /// Directory for files the run writes (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// One run's outcome: the fields of the final JSON line plus the
/// correctness failures found on the way.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void failed_op(const std::string& what) {
    ++failed_;
    fail(what);
  }
  bool correct() const { return errors_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Detail lines printed before the JSON line (sample counts, digests).
  void note(const std::string& line) { notes_.push_back(line); }
  /// Prints notes, failures (stderr) and the final JSON line; returns the
  /// process exit code (0 only when every check passed).
  int print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans the traced run keeps in memory around each public layer call,
/// written out at exit. Only the runner's main thread records spans, so
/// children nest strictly inside their parent and a span's self time is
/// its duration minus the durations of its direct children.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  /// RAII span; a no-op while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  void enable(bool on) { enabled_ = on; }
  void set_request(std::uint64_t id) { request_ = id; }
  /// Self seconds per span name.
  std::map<std::string, double> self_seconds() const;
  /// Self seconds of every span carrying request id `request`, by name.
  std::map<std::string, double> self_seconds_of(std::uint64_t request) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;
  void clear();

 private:
  double now() const;
  bool enabled_ = false;
  std::uint64_t request_ = 0;
  int open_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Sample of timings with order statistics.
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0,1]. 0 for an empty sample.
double percentile(std::vector<double> values, double q);
/// The highest of {0.99, 0.95, 0.9, 0.75, 0.5} with at least ten samples
/// beyond it; 0.5 when the sample is too small for any.
double supported_quantile(std::size_t samples, double wanted);

/// FNV-1a 64 over bytes, chainable.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull);
std::uint64_t fnv1a_doubles(const std::vector<double>& values,
                            std::uint64_t hash = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t value);

/// True when the report's scores row carries four finite numbers.
bool report_scores_finite(const std::string& report);

/// obs counter registry, as a name -> value map.
std::map<std::string, std::uint64_t> counter_snapshot();
/// Sum (in the histogram's unit, microseconds for latencies) of each
/// registered obs histogram.
std::map<std::string, double> histogram_sums();
std::uint64_t delta(const std::map<std::string, std::uint64_t>& after,
                    const std::map<std::string, std::uint64_t>& before,
                    const std::string& name);
double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name);

/// Peak resident set of this process and of its reaped children, MB.
double peak_rss_mb();

/// Runs `setup` `repeats` times and returns the median wall seconds; the
/// last call's state is the one the run keeps.
template <typename F>
double timed_setup(int repeats, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// Number of setup repeats behind setup_s.
inline constexpr int kSetupRepeats = 5;

/// The per-layer metric names every traced run reports, with units; a
/// workload that never reaches a layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Fills every per-layer metric from `values` (missing names are 0).
void emit_layers(Result& result, const std::map<std::string, double>& values);

/// The end-to-end metrics every untraced run reports.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  // taken when the timed window ends
  double latency_ms = 0.0;  // the workload's headline latency, see README.md
  double throughput = 0.0;  // work units per second, see README.md
};
void emit_end_to_end(Result& result, const EndToEnd& values);

/// Self seconds of the recorded spans folded into per-layer busy_s
/// metrics, plus trace.layer_sum_frac against `wall_s`.
void add_layer_times(std::map<std::string, double>& values,
                     const SpanLog& spans, double wall_s);

int run_cold_builtin(const Options& options, Result& result);
int run_serve_mix(const Options& options, Result& result);
int run_job_drain(const Options& options, Result& result);
int run_csv_ingest(const Options& options, Result& result);
/// Child-process entry of serve_mix: the router tier behind the TCP
/// transport. Never returns.
[[noreturn]] void serve_child(const Options& options);

}  // namespace perfbench
