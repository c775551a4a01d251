// Shared helpers for the bench (table/figure regeneration) binaries.
//
// Every bench accepts two optional positional arguments:
//   argv[1]  instructions per workload  (default 2'000'000)
//   argv[2]  PMU sample interval        (default instructions/100)
// so the full-fidelity runs used for EXPERIMENTS.md and quick smoke runs
// share one binary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/report.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulator.hpp"
#include "suites/suite_factory.hpp"

// Injected by bench/CMakeLists.txt from `git rev-parse --short HEAD` at
// configure time; "unknown" outside a git checkout (e.g. tarball builds).
#ifndef PERSPECTOR_GIT_REV
#define PERSPECTOR_GIT_REV "unknown"
#endif

namespace perspector::bench {

// Instrumented breakdowns "for free": including this header installs a
// process-lifetime trace session that turns the obs tracer on at startup
// (PERSPECTOR_TRACE=0 in the environment still force-disables it) and
// prints the collapsed per-phase timing table to stderr when the bench
// exits, after its normal output. Setting PERSPECTOR_BENCH_TRACE=<path>
// additionally dumps the raw spans as Chrome trace-event JSON at exit
// (load in chrome://tracing or https://ui.perfetto.dev).
namespace detail {

class TraceSession {
 public:
  TraceSession() { obs::Tracer::instance().enable(); }
  ~TraceSession() {
    const char* trace_path = std::getenv("PERSPECTOR_BENCH_TRACE");
    if (trace_path != nullptr && trace_path[0] != '\0') {
      try {
        obs::Tracer::instance().write_chrome_trace(trace_path);
        std::cerr << "chrome trace written to " << trace_path << "\n";
      } catch (const std::exception& e) {
        std::cerr << "chrome trace dump failed: " << e.what() << "\n";
      }
    }
    const auto summary = obs::Tracer::instance().phase_summary();
    if (summary.empty()) return;
    // The tracer's epoch is this session's constructor, at program start.
    std::cerr << "\n--- per-phase timing (obs; nested spans overlap) ---\n"
              << core::phase_timing_table(summary,
                                          obs::Tracer::instance().now_us())
                     .to_text();
  }
};

inline TraceSession trace_session;

/// Minimal JSON string escaping for the report writer (bench must not
/// depend on the serve layer, which has the full escaper).
inline void append_quoted(std::string& out, const std::string& text) {
  out += '"';
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

/// %.17g — shortest representation that round-trips a double exactly,
/// so perf_check compares the numbers the bench actually measured.
inline void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace detail

struct BenchConfig {
  std::uint64_t instructions = 2'000'000;
  std::uint64_t sample_interval = 20'000;
};

inline BenchConfig parse_args(int argc, char** argv) {
  BenchConfig config;
  if (argc > 1) config.instructions = std::strtoull(argv[1], nullptr, 10);
  if (config.instructions == 0) config.instructions = 2'000'000;
  config.sample_interval = config.instructions / 100;
  if (argc > 2) config.sample_interval = std::strtoull(argv[2], nullptr, 10);
  if (config.sample_interval == 0) config.sample_interval = 1;
  return config;
}

inline suites::SuiteBuildOptions build_options(const BenchConfig& config) {
  suites::SuiteBuildOptions options;
  options.instructions_per_workload = config.instructions;
  return options;
}

inline sim::SimOptions sim_options(const BenchConfig& config) {
  sim::SimOptions options;
  options.sample_interval = config.sample_interval;
  return options;
}

/// Simulates all six paper suites and returns their counter matrices.
inline std::vector<core::CounterMatrix> collect_all_suites(
    const BenchConfig& config) {
  const auto machine = sim::MachineConfig::xeon_e2186g();
  std::vector<core::CounterMatrix> data;
  for (const auto& spec : suites::all_suites(build_options(config))) {
    data.push_back(
        core::collect_counters(spec, machine, sim_options(config)));
  }
  return data;
}

/// Uniform machine-readable bench record, consumed by tools/perf_check.
///
/// Every bench builds one of these, calls add_metric() for each headline
/// number, and write()s it to results/bench_<name>.json. The record
/// carries enough provenance (git rev, worker-thread count, bench config)
/// to judge whether two records are comparable, plus a snapshot of every
/// obs histogram and per-phase trace totals for drill-down.
///
/// Metric names encode their direction for perf_check via suffix:
/// `*_rps` / `*_mbps` mean higher is better; `*_us` / `*_ms` / `*_ns`
/// mean lower is better. Other names are compared informationally only.
class BenchReport {
 public:
  BenchReport(std::string bench, const BenchConfig& config)
      : bench_(std::move(bench)), config_(config) {}

  /// Records one headline metric; insertion order is preserved in the
  /// JSON so diffs stay stable across runs.
  void add_metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// Serializes the full record. Shape (stable, schema-versioned):
  ///   {"schema":1,"bench":...,"git_rev":...,
  ///    "machine":{"threads":N},
  ///    "config":{"instructions":N,"sample_interval":N},
  ///    "metrics":{name:value,...},
  ///    "histograms":{name:{count,min,max,mean,p50,p90,p99,p999},...},
  ///    "phases":{name:{calls,total_us},...}}
  std::string to_json() const {
    std::string out = "{\n  \"schema\": 1,\n  \"bench\": ";
    detail::append_quoted(out, bench_);
    out += ",\n  \"git_rev\": ";
    detail::append_quoted(out, PERSPECTOR_GIT_REV);
    out += ",\n  \"machine\": {\"threads\": ";
    out += std::to_string(par::thread_count());
    out += "},\n  \"config\": {\"instructions\": ";
    out += std::to_string(config_.instructions);
    out += ", \"sample_interval\": ";
    out += std::to_string(config_.sample_interval);
    out += "},\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      detail::append_quoted(out, metrics_[i].first);
      out += ": ";
      detail::append_double(out, metrics_[i].second);
    }
    out += metrics_.empty() ? "}" : "\n  }";
    out += ",\n  \"histograms\": {";
    const auto histograms = obs::histograms_snapshot();
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      const auto& h = histograms[i];
      out += i ? ",\n    " : "\n    ";
      detail::append_quoted(out, h.name);
      out += ": {\"count\": " + std::to_string(h.stats.count);
      out += ", \"min\": ";
      detail::append_double(out, h.stats.min);
      out += ", \"max\": ";
      detail::append_double(out, h.stats.max);
      out += ", \"mean\": ";
      detail::append_double(out, h.stats.mean());
      out += ", \"p50\": ";
      detail::append_double(out, h.stats.p50);
      out += ", \"p90\": ";
      detail::append_double(out, h.stats.p90);
      out += ", \"p99\": ";
      detail::append_double(out, h.stats.p99);
      out += ", \"p999\": ";
      detail::append_double(out, h.stats.p999);
      out += "}";
    }
    out += histograms.empty() ? "}" : "\n  }";
    out += ",\n  \"phases\": {";
    const auto phases = obs::Tracer::instance().phase_summary();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      detail::append_quoted(out, phases[i].name);
      out += ": {\"calls\": " + std::to_string(phases[i].count);
      out += ", \"total_us\": ";
      detail::append_double(out, phases[i].total_us);
      out += "}";
    }
    out += phases.empty() ? "}" : "\n  }";
    out += "\n}\n";
    return out;
  }

  /// Writes to_json() to `path`, creating parent directories; throws
  /// std::runtime_error on I/O failure.
  void write(const std::string& path) const {
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("BenchReport::write: cannot open '" + path +
                               "'");
    }
    out << to_json();
    if (!out) {
      throw std::runtime_error("BenchReport::write: write failed for '" +
                               path + "'");
    }
    std::cerr << "results written to " << path << "\n";
  }

 private:
  std::string bench_;
  BenchConfig config_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace perspector::bench
