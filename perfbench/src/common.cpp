#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& what) { errors_.push_back(what); }

int Result::print() const {
  for (const auto& line : notes_) std::cout << line << "\n";
  for (const auto& error : errors_) std::cerr << "perfbench: FAIL " << error << "\n";
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, metrics_[i].name);
    out += ":{\"value\":" + format_number(metrics_[i].value) + ",\"unit\":";
    append_json_string(out, metrics_[i].unit);
    out += '}';
  }
  out += "}}";
  std::cout << out << std::endl;
  return correct() && attempted_ > 0 ? 0 : 1;
}

// ---- spans -----------------------------------------------------------------

double SpanLog::now() const { return seconds_between(epoch_, Clock::now()); }

SpanLog::Scope::Scope(SpanLog& log, std::string_view name) : log_(log) {
  if (!log_.enabled_) return;
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(
      {std::string(name), log_.now(), 0.0, log_.open_, log_.request_});
  log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  auto& span = log_.spans_[static_cast<std::size_t>(index_)];
  span.end_s = log_.now();
  log_.open_ = span.parent;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

std::map<std::string, double> SpanLog::self_seconds_of(
    std::uint64_t request) const {
  std::map<std::string, double> out;
  for (const auto& span : spans_) {
    if (span.request != request) continue;
    const double duration = span.end_s - span.start_s;
    out[span.name] += duration;
    if (span.parent >= 0) {
      const auto& parent = spans_[static_cast<std::size_t>(span.parent)];
      if (parent.request == request) out[parent.name] -= duration;
    }
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& span : spans_) {
    std::string line = "{\"name\":";
    append_json_string(line, span.name);
    line += ",\"start_s\":" + format_number(span.start_s);
    line += ",\"end_s\":" + format_number(span.end_s);
    line += ",\"parent\":" + std::to_string(span.parent);
    line += ",\"request\":" + std::to_string(span.request) + "}\n";
    out << line;
  }
}

void SpanLog::clear() {
  spans_.clear();
  open_ = -1;
  request_ = 0;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double supported_quantile(std::size_t samples, double wanted) {
  for (const double q : {0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (q > wanted) continue;
    if ((1.0 - q) * static_cast<double>(samples) >= 10.0) return q;
  }
  return 0.5;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a_doubles(const std::vector<double>& values,
                            std::uint64_t hash) {
  for (const double v : values) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    hash = fnv1a(std::string_view(bytes, sizeof v), hash);
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool report_scores_finite(const std::string& report) {
  // The scores table: a "| suite |" header, a separator, then one row
  // per suite: | name | cluster | trend | coverage | spread | pca-dims |
  std::istringstream in(report);
  std::string line;
  bool header = false;
  bool separator = false;
  while (std::getline(in, line)) {
    if (!header) {
      header = line.rfind("| suite", 0) == 0;
      continue;
    }
    if (!separator) {
      separator = true;
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream row(line);
    std::string cell;
    while (std::getline(row, cell, '|')) cells.push_back(cell);
    if (cells.size() < 6) return false;
    for (std::size_t i = 2; i < 6; ++i) {
      char* end = nullptr;
      const double value = std::strtod(cells[i].c_str(), &end);
      if (end == cells[i].c_str() || !std::isfinite(value)) return false;
    }
    return true;
  }
  return false;
}

// ---- obs registry ----------------------------------------------------------

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& snapshot : perspector::obs::counters_snapshot()) {
    out[snapshot.name] = snapshot.value;
  }
  return out;
}

std::map<std::string, double> histogram_sums() {
  std::map<std::string, double> out;
  for (const auto& snapshot : perspector::obs::histograms_snapshot()) {
    out[snapshot.name] = snapshot.stats.sum;
  }
  return out;
}

std::uint64_t delta(const std::map<std::string, std::uint64_t>& after,
                    const std::map<std::string, std::uint64_t>& before,
                    const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  const std::uint64_t av = a == after.end() ? 0 : a->second;
  const std::uint64_t bv = b == before.end() ? 0 : b->second;
  return av >= bv ? av - bv : 0;
}

double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// ---- metric sets -----------------------------------------------------------

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      // Workload-level figures of the traced run's untraced pass.
      {"cold_minstr_per_s", "Minstr/s"},
      {"cold_p50_s", "s"},
      {"serve_p50_ms", "ms"},
      {"serve_read_p99_ms", "ms"},
      {"serve_write_p95_ms", "ms"},
      {"serve_slo_frac", "ratio"},
      {"serve_max_rps", "req/s"},
      {"jobs_per_min", "jobs/min"},
      {"job_submit_p50_ms", "ms"},
      {"ingest_mbps", "MB/s"},
      {"failed_frac", "ratio"},
      {"op.samples", "count"},
      // sim
      {"sim.busy_s", "s"},
      {"sim.host_minstr_per_s", "Minstr/s"},
      {"sim.instructions", "count"},
      {"sim.workloads_per_distinct", "ratio"},
      // dtw
      {"dtw.busy_s", "s"},
      {"dtw.cells", "count"},
      {"dtw.prime_hit_ratio", "ratio"},
      {"dtw.delta_upserts", "count"},
      // cluster, pca, stats
      {"cluster.busy_s", "s"},
      {"cluster.kmeans_iterations", "count"},
      {"cluster.silhouette_evals", "count"},
      {"pca.busy_s", "s"},
      {"pca.eigen_sweeps", "count"},
      {"stats.busy_s", "s"},
      {"stats.ks_tests", "count"},
      // core
      {"core.score_busy_s", "s"},
      {"core.report_busy_s", "s"},
      {"core.io.parse_busy_s", "s"},
      {"core.io.parse_mbps", "MB/s"},
      // serve
      {"serve.protocol.parse_busy_s", "s"},
      {"serve.protocol.serialize_busy_s", "s"},
      {"serve.protocol.bytes", "count"},
      {"serve.content_key_busy_s", "s"},
      {"serve.transport.rtt_p50_us", "us"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.router.forwarded", "count"},
      {"serve.router.forward_busy_s", "s"},
      {"serve.router.shard_imbalance", "ratio"},
      {"serve.wait_p99_ms", "ms"},
      {"serve.gen_lag_p99_ms", "ms"},
      {"serve.rejected", "count"},
      {"serve.timeouts", "count"},
      // jobs, store
      {"jobs.submit_busy_s", "s"},
      {"jobs.step_busy_s", "s"},
      {"jobs.slice_p99_ms", "ms"},
      {"jobs.candidates_evaluated", "count"},
      {"jobs.candidate_cache_hit_ratio", "ratio"},
      {"store.ckpt.appends", "count"},
      {"store.append_p50_ms", "ms"},
      // ingest
      {"ingest.busy_s", "s"},
      {"ingest.mbps", "MB/s"},
      {"ingest.bytes", "count"},
      {"ingest.rows", "count"},
      {"ingest.chunks", "count"},
      // cross-cutting
      {"par.tasks", "count"},
      {"mem.scratch_reuse_ratio", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"trace.layer_sum_frac", "ratio"},
  };
  return kMetrics;
}

void emit_layers(Result& result, const std::map<std::string, double>& values) {
  // The stated tolerance: per-layer self-times add up to the traced
  // pass's wall within 15% (the rest is the runner's own glue, and on
  // job_drain the pairing of replayed simulation with the real steps).
  const auto sum = values.find("trace.layer_sum_frac");
  if (sum == values.end() || std::abs(sum->second - 1.0) > 0.15) {
    result.fail("per-layer self-times do not add up to the traced wall within 15%");
  }
  for (const auto& metric : layer_metrics()) {
    const auto it = values.find(metric.name);
    result.metric(metric.name, it == values.end() ? 0.0 : it->second,
                  metric.unit);
  }
}

void emit_end_to_end(Result& result, const EndToEnd& values) {
  result.metric("setup_s", values.setup_s, "s");
  result.metric("peak_rss_mb", values.peak_rss_mb, "MB");
  const double attempted = static_cast<double>(result.attempted());
  result.metric("ok_frac",
                attempted > 0
                    ? (attempted - static_cast<double>(result.failed())) /
                          attempted
                    : 0.0,
                "ratio");
  result.metric("latency_ms", values.latency_ms, "ms");
  result.metric("throughput", values.throughput, "work/s");
}

void add_layer_times(std::map<std::string, double>& values,
                     const SpanLog& spans, double wall_s) {
  // Span name -> per-layer busy metric. "op" is the benchmark's own
  // per-request root span; its self time is runner overhead, not a layer.
  static const std::map<std::string, std::string> kBusy = {
      {"sim", "sim.busy_s"},
      {"dtw", "dtw.busy_s"},
      {"cluster", "cluster.busy_s"},
      {"pca", "pca.busy_s"},
      {"stats", "stats.busy_s"},
      {"core.score", "core.score_busy_s"},
      {"core.report", "core.report_busy_s"},
      {"core.io.parse", "core.io.parse_busy_s"},
      {"serve.protocol.parse", "serve.protocol.parse_busy_s"},
      {"serve.protocol.serialize", "serve.protocol.serialize_busy_s"},
      {"serve.content_key", "serve.content_key_busy_s"},
      {"jobs.submit", "jobs.submit_busy_s"},
      {"jobs.step", "jobs.step_busy_s"},
      {"ingest", "ingest.busy_s"},
  };
  double layer_sum = 0.0;
  for (const auto& [name, self] : spans.self_seconds()) {
    const auto it = kBusy.find(name);
    if (it == kBusy.end()) continue;
    values[it->second] += self;
    layer_sum += self;
  }
  values["trace.layer_sum_frac"] = wall_s > 0.0 ? layer_sum / wall_s : 0.0;
}

}  // namespace perfbench
