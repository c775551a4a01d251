// csv_ingest: a closed loop of one caller reading a large aggregates dump
// with core::read_aggregates_csv (>= 1 MiB, so the streamed CsvStream path
// with its IO thread) and a series dump with core::read_with_series_csv.
// The files are warm in the page cache; this is the only workload that
// reaches the file path of src/ingest/.
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common.hpp"
#include "core/io.hpp"
#include "generate.hpp"

namespace perfbench {

namespace core = perspector::core;

namespace {

struct Files {
  std::string aggregates;         // the big dump
  std::string series_aggregates;  // aggregates of the series suite
  std::string series;
  double bytes = 0.0;             // bytes one operation reads
  std::uint64_t aggregates_digest = 0;
  std::uint64_t series_digest = 0;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("csv_ingest: cannot write " + path);
}

/// Reads the file once so the timed reads find it in the page cache.
std::size_t warm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<std::size_t>(std::distance(std::istreambuf_iterator<char>(in),
                                                std::istreambuf_iterator<char>()));
}

Files make_files(const Options& options) {
  Files files;
  const std::string dir = options.work_dir + "/ingest";
  std::filesystem::create_directories(dir);
  const IngestInputs inputs = ingest_inputs(options.seed, options.scale);
  files.aggregates = dir + "/aggregates.csv";
  files.series_aggregates = dir + "/series_aggregates.csv";
  files.series = dir + "/series.csv";
  // The text writers print every double exactly, so a correct reader
  // returns the very doubles generated here.
  write_file(files.aggregates, core::write_aggregates_csv_text(inputs.aggregates));
  write_file(files.series_aggregates, core::write_aggregates_csv_text(inputs.series));
  write_file(files.series, core::write_series_csv_text(inputs.series));
  files.bytes = static_cast<double>(warm(files.aggregates) +
                                    warm(files.series_aggregates) + warm(files.series));
  files.aggregates_digest = fnv1a_doubles(matrix_doubles(inputs.aggregates));
  files.series_digest = fnv1a_doubles(matrix_doubles(inputs.series));
  return files;
}

struct Read {
  double seconds = 0.0;
  std::uint64_t digest = 0;  // of the matrices the readers returned (with `check`)
};

/// One operation: both readers, timed. With `check`, each result is then
/// digested and compared with the generator's doubles.
Read read_once(const Files& files, SpanLog& spans, bool check, Result& result) {
  Read read;
  result.attempt();
  try {
    const auto t0 = Clock::now();
    core::CounterMatrix aggregates;
    {
      SpanLog::Scope span(spans, "ingest");
      aggregates = core::read_aggregates_csv("dump", files.aggregates);
    }
    core::CounterMatrix series;
    {
      SpanLog::Scope span(spans, "ingest");
      series = core::read_with_series_csv("traces", files.series_aggregates, files.series);
    }
    read.seconds = seconds_between(t0, Clock::now());
    if (check) {
      const std::uint64_t aggregates_digest = fnv1a_doubles(matrix_doubles(aggregates));
      const std::uint64_t series_digest = fnv1a_doubles(matrix_doubles(series));
      if (aggregates_digest != files.aggregates_digest) {
        result.fail("csv_ingest: aggregates digest differs from the generated doubles");
      }
      if (series_digest != files.series_digest) {
        result.fail("csv_ingest: series digest differs from the generated doubles");
      }
      read.digest = fnv1a(hex64(aggregates_digest) + hex64(series_digest));
    }
  } catch (const std::exception& e) {
    result.failed_op(std::string("csv_ingest: ") + e.what());
  }
  return read;
}

}  // namespace

int run_csv_ingest(const Options& options, Result& result) {
  Files files;
  const double setup_s = timed_setup(kSetupRepeats, [&] { files = make_files(options); });

  SpanLog no_spans;
  const auto before = counter_snapshot();
  std::vector<double> op_s;
  const auto t0 = Clock::now();
  const std::size_t max_ops = options.trace ? 5 : 1000000;
  while (op_s.size() < max_ops &&
         (options.trace || seconds_between(t0, Clock::now()) < options.seconds)) {
    const Read read = read_once(files, no_spans, true, result);
    if (op_s.empty()) result.note("digest " + hex64(read.digest));
    op_s.push_back(read.seconds);
  }
  const double rss_mb = peak_rss_mb();
  const auto after = counter_snapshot();
  double busy_s = 0.0;
  for (const double s : op_s) busy_s += s;
  const double mbps = files.bytes * static_cast<double>(op_s.size()) / 1e6 / busy_s;
  result.note("samples ingest ops=" + std::to_string(op_s.size()) +
              " bytes_per_op=" + std::to_string(static_cast<long long>(files.bytes)));

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = rss_mb;
    e2e.latency_ms = median(op_s) * 1e3;
    e2e.throughput = mbps;
    emit_end_to_end(result, e2e);
    return result.print();
  }

  SpanLog spans;
  spans.enable(true);
  const auto r0 = Clock::now();
  for (std::size_t i = 0; i < op_s.size(); ++i) {
    spans.set_request(i + 1);
    SpanLog::Scope op(spans, "op");
    // The untraced pass checked these very reads; the traced pass times
    // only the readers.
    read_once(files, spans, false, result);
  }
  const double traced_wall_s = seconds_between(r0, Clock::now());
  spans.write(options.work_dir + "/spans_csv_ingest.jsonl");

  std::map<std::string, double> layers;
  add_layer_times(layers, spans, traced_wall_s);
  layers["ingest_mbps"] = mbps;
  layers["failed_frac"] = static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted());
  layers["op.samples"] = static_cast<double>(op_s.size());
  layers["ingest.mbps"] = files.bytes * static_cast<double>(op_s.size()) / 1e6 /
                          std::max(layers["ingest.busy_s"], 1e-9);
  layers["obs.trace_overhead"] = traced_wall_s / busy_s;
  auto d = [&](const std::string& name) {
    return static_cast<double>(delta(after, before, name));
  };
  layers["ingest.bytes"] = d("ingest.bytes");
  layers["ingest.rows"] = d("ingest.rows");
  layers["ingest.chunks"] = d("ingest.chunks");
  layers["sim.instructions"] = d("sim.instructions");
  layers["par.tasks"] = d("par.tasks");
  const double acquires = d("mem.scratch.acquires");
  layers["mem.scratch_reuse_ratio"] = acquires > 0 ? d("mem.scratch.reuses") / acquires : 0.0;
  emit_layers(result, layers);
  return result.print();
}

}  // namespace perfbench
