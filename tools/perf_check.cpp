// perf_check — perf-regression gate over BenchReport JSON records.
//
//   perf_check --baseline results/bench_serve_baseline.json
//              --fresh results/bench_serve.json [--max-regress 1.5]
//
// Compares every metric the two records share. Direction comes from the
// metric-name suffix (the BenchReport naming contract):
//   *_rps, *_mbps        higher is better  (ratio = baseline / fresh)
//   *_us, *_ms, *_ns     lower is better   (ratio = fresh / baseline)
//   *_exact              must be equal (deterministic work counters and
//                        output digests: they depend on the model, not
//                        on the machine, so any change is a failure)
//   anything else        informational only, never gates
// A metric regresses when its ratio exceeds --max-regress (default 1.5;
// generous because bench machines and CI runners are noisy — this gate
// catches order-of-magnitude mistakes, not 5% drift).
//
// A *gated* metric (one whose suffix gives it a direction) that exists
// in the baseline but not in the fresh record is itself a failure: a
// renamed or deleted bench row silently un-gates the very number the
// baseline was committed to protect. Informational metrics may come and
// go freely.
//
// Prints a comparison table plus the provenance of both records (git
// rev, worker threads, bench config) so a failure report is
// self-contained. Exit codes: 0 all gated metrics within threshold,
// 1 at least one regression, 2 I/O or parse trouble (missing file,
// malformed JSON, records from different benches), 3 a gated baseline
// metric is missing from the fresh record. A changed *_exact metric
// counts as a regression (exit 1).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "serve/json.hpp"

namespace {

using namespace perspector;

struct Record {
  std::string path;
  std::string bench;
  std::string git_rev;
  std::string threads;
  std::string instructions;
  serve::json::Value root;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "perf_check: " << message << "\n";
  std::exit(2);
}

std::string string_or(const serve::json::Value* value,
                      const std::string& fallback) {
  return value && value->is_string() ? value->string : fallback;
}

std::string number_as_string(const serve::json::Value* value) {
  if (!value || !value->is_number()) return "?";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", value->number);
  return buf;
}

Record load_record(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Record record;
  record.path = path;
  try {
    record.root = serve::json::parse(buffer.str());
  } catch (const std::exception& e) {
    die("malformed JSON in '" + path + "': " + e.what());
  }
  if (!record.root.is_object() || !record.root.find("metrics")) {
    die("'" + path + "' is not a BenchReport record (no \"metrics\" object)");
  }
  record.bench = string_or(record.root.find("bench"), "?");
  record.git_rev = string_or(record.root.find("git_rev"), "?");
  if (const auto* machine = record.root.find("machine")) {
    record.threads = number_as_string(machine->find("threads"));
  }
  if (const auto* config = record.root.find("config")) {
    record.instructions = number_as_string(config->find("instructions"));
  }
  return record;
}

bool ends_with(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

enum class Direction { HigherBetter, LowerBetter, Exact, Info };

Direction direction_of(const std::string& name) {
  if (ends_with(name, "_exact")) return Direction::Exact;
  if (ends_with(name, "_rps") || ends_with(name, "_mbps") || name == "rps") {
    return Direction::HigherBetter;
  }
  if (ends_with(name, "_us") || ends_with(name, "_ms") ||
      ends_with(name, "_ns")) {
    return Direction::LowerBetter;
  }
  return Direction::Info;
}

std::string format_value(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  double max_regress = 1.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--fresh" && i + 1 < argc) {
      fresh_path = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "usage: perf_check --baseline <record.json> "
                   "--fresh <record.json> [--max-regress <factor>]\n";
      return 2;
    }
  }
  if (baseline_path.empty() || fresh_path.empty()) {
    std::cerr << "perf_check: --baseline and --fresh are both required\n";
    return 2;
  }
  if (!(max_regress > 1.0)) {
    std::cerr << "perf_check: --max-regress must be > 1.0\n";
    return 2;
  }

  const Record baseline = load_record(baseline_path);
  const Record fresh = load_record(fresh_path);
  if (baseline.bench != fresh.bench) {
    die("records are from different benches: '" + baseline.bench + "' vs '" +
        fresh.bench + "'");
  }

  std::cout << "perf_check: bench " << fresh.bench << ", threshold "
            << format_value(max_regress) << "x\n"
            << "  baseline: " << baseline.path << " (rev " << baseline.git_rev
            << ", threads " << baseline.threads << ", instructions "
            << baseline.instructions << ")\n"
            << "  fresh:    " << fresh.path << " (rev " << fresh.git_rev
            << ", threads " << fresh.threads << ", instructions "
            << fresh.instructions << ")\n\n";
  if (baseline.threads != fresh.threads ||
      baseline.instructions != fresh.instructions) {
    std::cout << "note: records were produced with different thread counts "
                 "or bench configs; ratios may not be meaningful\n\n";
  }

  const auto* baseline_metrics = baseline.root.find("metrics");
  const auto* fresh_metrics = fresh.root.find("metrics");
  core::Table table({"metric", "baseline", "fresh", "ratio", "status"});
  std::vector<std::string> regressions;
  std::vector<std::string> missing_gated;
  for (const auto& [name, base_value] : baseline_metrics->members) {
    if (!base_value.is_number()) continue;
    const auto* fresh_value = fresh_metrics->find(name);
    const Direction direction = direction_of(name);
    if (!fresh_value || !fresh_value->is_number()) {
      const bool gated = direction != Direction::Info;
      table.add_row({name, format_value(base_value.number), "-", "-",
                     gated ? "MISSING FROM FRESH" : "missing in fresh"});
      if (gated) missing_gated.push_back(name);
      continue;
    }
    if (direction == Direction::Info) {
      table.add_row({name, format_value(base_value.number),
                     format_value(fresh_value->number), "-", "info"});
      continue;
    }
    if (direction == Direction::Exact) {
      const bool changed = base_value.number != fresh_value->number;
      table.add_row({name, format_value(base_value.number),
                     format_value(fresh_value->number), "-",
                     changed ? "CHANGED" : "ok"});
      if (changed) regressions.push_back(name);
      continue;
    }
    if (!(base_value.number > 0.0) || !(fresh_value->number > 0.0)) {
      table.add_row({name, format_value(base_value.number),
                     format_value(fresh_value->number), "-",
                     "skipped (non-positive)"});
      continue;
    }
    // ratio > 1 always means "fresh is worse", whichever the direction.
    const double ratio = direction == Direction::HigherBetter
                             ? base_value.number / fresh_value->number
                             : fresh_value->number / base_value.number;
    const bool regressed = ratio > max_regress;
    table.add_row({name, format_value(base_value.number),
                   format_value(fresh_value->number), format_value(ratio),
                   regressed ? "REGRESSED" : "ok"});
    if (regressed) regressions.push_back(name);
  }
  for (const auto& [name, value] : fresh_metrics->members) {
    if (value.is_number() && !baseline_metrics->find(name)) {
      table.add_row(
          {name, "-", format_value(value.number), "-", "new in fresh"});
    }
  }

  std::cout << table.to_text();
  if (!missing_gated.empty()) {
    // Reported ahead of regressions: a vanished gate is worse than a
    // tripped one, because nothing else will ever trip it again.
    std::cout << "\n" << missing_gated.size()
              << " gated metric(s) missing from fresh:";
    for (const auto& name : missing_gated) std::cout << " " << name;
    std::cout << "\n(a renamed or deleted bench row un-gates its baseline;"
                 " refresh the baseline deliberately instead)\n";
    return 3;
  }
  if (!regressions.empty()) {
    std::cout << "\n" << regressions.size()
              << " metric(s) regressed beyond " << format_value(max_regress)
              << "x or changed (*_exact):";
    for (const auto& name : regressions) std::cout << " " << name;
    std::cout << "\n";
    return 1;
  }
  std::cout << "\nno regressions beyond " << format_value(max_regress)
            << "x\n";
  return 0;
}
