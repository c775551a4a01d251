#include "core/io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "ingest/csv_stream.hpp"
#include "ingest/name_index.hpp"
#include "ingest/number.hpp"

namespace perspector::core {

namespace {

using ingest::csv_location;
using Series = std::vector<std::vector<std::vector<double>>>;

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

/// Parses one numeric cell. The ingest fast path covers short plain
/// decimals with a correctly-rounded multiply (bit-identical to
/// from_chars); everything it declines — long significands, extreme
/// exponents, nan/inf, malformed cells — goes through from_chars, which
/// decides acceptance and the error message.
double parse_double(std::string_view cell, std::size_t line_no,
                    std::uint64_t byte_offset) {
  double value = 0.0;
  if (ingest::parse_number(cell, value)) return value;
  const char* first = cell.data();
  const char* last = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": expected a number, got '" +
                             std::string(cell) + "'");
  }
  // from_chars happily parses "nan"/"inf"/"infinity"; every score is
  // undefined over non-finite counters, so reject them at the boundary
  // instead of letting them poison normalization silently.
  if (!std::isfinite(value)) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": non-finite value '" + std::string(cell) +
                             "' is not allowed");
  }
  return value;
}

std::size_t parse_index(std::string_view cell, std::size_t line_no,
                        std::uint64_t byte_offset) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": expected an index, got '" + std::string(cell) +
                             "'");
  }
  return value;
}

// %.17g: enough digits that parsing the text recovers the exact double,
// so every written matrix reads back bit-exactly.
void append_exact_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << text;
  if (!out) throw std::runtime_error("write failed for '" + path + "'");
}

// File readers overlap disk reads with parsing on the stream's IO thread
// (default 1 MiB chunks). In-memory payloads are small: one 64 KiB chunk
// buffer, no thread.
constexpr ingest::IngestOptions kTextOptions{.chunk_bytes = 1 << 16,
                                             .io_thread = false};

std::ifstream open_for_read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  return in;
}

/// Size hint for capacity estimates; 0 when the file cannot be stat'ed.
std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// The aggregate-row body: appends every data row left in `stream` to
/// `workloads`/`values`, which may already hold a base suite's rows (new
/// names must not repeat them either). `map`, when set, permutes each
/// row's value cells into counter order. `origin` labels the input in
/// errors; `size_hint` is its byte size.
void read_aggregate_rows(ingest::CsvStream& stream, std::size_t num_counters,
                         const ingest::ColumnMap* map,
                         std::uint64_t size_hint, const std::string& origin,
                         std::vector<std::string>& workloads,
                         la::Matrix& values) {
  const std::size_t first = workloads.size();
  ingest::NameIndex seen;
  std::vector<std::string_view> rearranged;
  std::vector<double> row(num_counters);
  while (stream.next_row()) {
    const auto& cells = stream.cells();
    const std::size_t line_no = stream.line_no();
    const std::uint64_t offset = stream.byte_offset();
    if (cells.size() != num_counters + 1) {
      throw std::runtime_error(
          csv_location(line_no, offset) + ": expected " +
          std::to_string(num_counters + 1) + " cells, got " +
          std::to_string(cells.size()));
    }
    if (workloads.size() == first) {
      // Capacities are estimated from the input size and the first data
      // row's width, so a multi-million-row file pays no regrow copies,
      // and duplicates are found through the flat NameIndex instead of a
      // node-per-row std::set (see ingest/name_index.hpp).
      std::size_t line_bytes = cells.size();  // separators + newline
      for (const auto& cell : cells) line_bytes += cell.size();
      const std::size_t estimate =
          first + static_cast<std::size_t>(size_hint) / line_bytes + 16;
      workloads.reserve(estimate);
      values.reserve(estimate, num_counters);
      seen = ingest::NameIndex(estimate);
      for (std::size_t w = 0; w < first; ++w) {
        seen.insert(workloads[w], w, workloads);
      }
    }
    if (seen.insert(cells[0], workloads.size(), workloads) !=
        ingest::NameIndex::npos) {
      throw std::runtime_error(csv_location(line_no, offset) +
                               ": duplicate workload '" +
                               std::string(cells[0]) + "'");
    }
    workloads.emplace_back(cells[0]);
    const std::string_view* value_cells = cells.data() + 1;
    if (map != nullptr) {
      map->rearrange(cells, rearranged);
      value_cells = rearranged.data();
    }
    for (std::size_t c = 0; c < num_counters; ++c) {
      row[c] = parse_double(value_cells[c], line_no, offset);
    }
    values.append_row(row);
  }
  if (workloads.size() == first) {
    throw std::runtime_error("'" + origin + "': no data rows");
  }
}

CounterMatrix read_aggregates(const std::string& suite_name,
                              ingest::CsvStream& stream,
                              const std::string& origin,
                              std::uint64_t size_hint) {
  if (!stream.next_row()) {
    throw std::runtime_error("'" + origin + "': empty file");
  }
  const auto& header = stream.cells();
  if (header.size() < 2 || header[0] != "workload") {
    throw std::runtime_error(
        "'" + origin + "': header must be 'workload,<counter>,...'");
  }
  std::vector<std::string> counters(header.begin() + 1, header.end());
  std::vector<std::string> workloads;
  la::Matrix values;
  read_aggregate_rows(stream, counters.size(), nullptr, size_hint, origin,
                      workloads, values);
  return CounterMatrix(suite_name, std::move(workloads), std::move(counters),
                       std::move(values));
}

/// The series-row body: checks the long-format header, then appends each
/// row's sample to `series[w][c]`, with names resolved against `names`.
/// `series` starts empty for a fresh read or as the base suite's series
/// for append_samples; either way each sample index must continue its
/// series densely. Returns the number of data rows.
std::size_t read_series_rows(ingest::CsvStream& stream,
                             const CounterMatrix& names,
                             const std::string& origin, Series& series) {
  const bool header_ok = stream.next_row() && stream.cells().size() == 4 &&
                         stream.cells()[0] == "workload" &&
                         stream.cells()[1] == "counter" &&
                         stream.cells()[2] == "sample" &&
                         stream.cells()[3] == "value";
  if (!header_ok) {
    throw std::runtime_error(
        "'" + origin + "': header must be 'workload,counter,sample,value'");
  }
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t w = kNone;
  std::size_t c = kNone;
  std::size_t rows = 0;
  while (stream.next_row()) {
    const auto& cells = stream.cells();
    const std::size_t line_no = stream.line_no();
    const std::uint64_t offset = stream.byte_offset();
    if (cells.size() != 4) {
      throw std::runtime_error(csv_location(line_no, offset) +
                               ": expected 4 cells");
    }
    // Rows usually run one series at a time, so the previous row's names
    // are tried before a lookup.
    try {
      if (w == kNone || cells[0] != names.workload_names()[w]) {
        w = names.workload_index(std::string(cells[0]));
      }
      if (c == kNone || cells[1] != names.counter_names()[c]) {
        c = names.counter_index(std::string(cells[1]));
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(csv_location(line_no, offset) + ": " +
                                  e.what());
    }
    const std::size_t s = parse_index(cells[2], line_no, offset);
    auto& target = series[w][c];
    if (s != target.size()) {
      throw std::runtime_error(
          csv_location(line_no, offset) +
          ": sample indices must be dense from 0 (expected " +
          std::to_string(target.size()) + ", got " + std::to_string(s) + ")");
    }
    target.push_back(parse_double(cells[3], line_no, offset));
    ++rows;
  }
  return rows;
}

/// A fresh series read: returns `bare` with the series of `stream`
/// attached, which must give every (workload, counter) pair a sample.
CounterMatrix attach_series(const CounterMatrix& bare,
                            ingest::CsvStream& stream,
                            const std::string& origin) {
  Series series(bare.num_workloads(),
                std::vector<std::vector<double>>(bare.num_counters()));
  read_series_rows(stream, bare, origin, series);
  for (std::size_t w = 0; w < bare.num_workloads(); ++w) {
    for (std::size_t c = 0; c < bare.num_counters(); ++c) {
      if (series[w][c].empty()) {
        throw std::runtime_error(
            "'" + origin + "': no samples for workload '" +
            bare.workload_names()[w] + "' counter '" +
            bare.counter_names()[c] + "'");
      }
    }
  }
  return CounterMatrix(bare.suite_name(), bare.workload_names(),
                       bare.counter_names(), bare.values(),
                       std::move(series));
}

/// Appends the series rows of `m` to `series`.
void append_series_of(const CounterMatrix& m, Series& series) {
  for (std::size_t w = 0; w < m.num_workloads(); ++w) {
    std::vector<std::vector<double>>& row = series.emplace_back();
    row.reserve(m.num_counters());
    for (std::size_t c = 0; c < m.num_counters(); ++c) {
      row.push_back(m.series(w, c));
    }
  }
}

}  // namespace

std::string write_aggregates_csv_text(const CounterMatrix& data) {
  std::string out = "workload";
  for (const auto& counter : data.counter_names()) {
    out += ',';
    out += csv_escape(counter);
  }
  out += '\n';
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    out += csv_escape(data.workload_names()[w]);
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      out += ',';
      append_exact_double(out, data.value(w, c));
    }
    out += '\n';
  }
  return out;
}

std::string write_series_csv_text(const CounterMatrix& data) {
  if (!data.has_series()) {
    throw std::logic_error("write_series_csv_text: matrix carries no series");
  }
  std::string out = "workload,counter,sample,value\n";
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      const auto& series = data.series(w, c);
      for (std::size_t s = 0; s < series.size(); ++s) {
        out += csv_escape(data.workload_names()[w]);
        out += ',';
        out += csv_escape(data.counter_names()[c]);
        out += ',';
        out += std::to_string(s);
        out += ',';
        append_exact_double(out, series[s]);
        out += '\n';
      }
    }
  }
  return out;
}

void write_aggregates_csv(const CounterMatrix& data, const std::string& path) {
  write_file(path, write_aggregates_csv_text(data));
}

void write_series_csv(const CounterMatrix& data, const std::string& path) {
  if (!data.has_series()) {
    throw std::logic_error("write_series_csv: matrix carries no series");
  }
  write_file(path, write_series_csv_text(data));
}

CounterMatrix read_aggregates_csv(const std::string& suite_name,
                                  const std::string& path) {
  auto in = open_for_read(path);
  ingest::CsvStream stream(in);
  return read_aggregates(suite_name, stream, path, file_bytes(path));
}

CounterMatrix read_aggregates_csv_text(const std::string& suite_name,
                                       const std::string& csv_text) {
  std::istringstream in(csv_text);
  ingest::CsvStream stream(in, kTextOptions);
  return read_aggregates(suite_name, stream, "<inline csv>", csv_text.size());
}

CounterMatrix read_with_series_csv(const std::string& suite_name,
                                   const std::string& aggregates_path,
                                   const std::string& series_path) {
  const CounterMatrix bare = read_aggregates_csv(suite_name, aggregates_path);
  auto in = open_for_read(series_path);
  ingest::CsvStream stream(in);
  return attach_series(bare, stream, series_path);
}

CounterMatrix read_with_series_csv_text(const std::string& suite_name,
                                        const std::string& aggregates_text,
                                        const std::string& series_text) {
  const CounterMatrix bare =
      read_aggregates_csv_text(suite_name, aggregates_text);
  std::istringstream in(series_text);
  ingest::CsvStream stream(in, kTextOptions);
  return attach_series(bare, stream, "<inline series csv>");
}

CounterMatrix append_workloads_csv_text(const CounterMatrix& base,
                                        const std::string& aggregates_text,
                                        const std::string& series_text) {
  const std::string origin = "<delta aggregates csv>";
  std::istringstream in(aggregates_text);
  ingest::CsvStream stream(in, kTextOptions);
  if (!stream.next_row()) {
    throw std::runtime_error("'" + origin + "': empty file");
  }
  const auto& header = stream.cells();
  if (header.size() != base.num_counters() + 1 || header[0] != "workload") {
    throw std::runtime_error(
        "'" + origin +
        "': header must name 'workload' and exactly the base suite's "
        "counters");
  }
  // With the size pinned above, a successful map means the header is a
  // permutation of the base counters (ColumnMap throws on missing or
  // duplicated columns).
  const ingest::ColumnMap map(header, base.counter_names());
  std::vector<std::string> workloads = base.workload_names();
  la::Matrix values = base.values();
  read_aggregate_rows(stream, base.num_counters(), &map,
                      aggregates_text.size(), origin, workloads, values);

  if (!base.has_series()) {
    if (!series_text.empty()) {
      throw std::logic_error(
          "append_workloads_csv_text: base has no series but series_text "
          "was supplied");
    }
    return CounterMatrix(base.suite_name(), std::move(workloads),
                         base.counter_names(), std::move(values));
  }

  // The series payload must cover exactly the new workloads; reading it
  // against a matrix of only those rows reuses the fresh read's dense-index
  // and full-coverage checks (a row naming a base workload fails its
  // workload lookup).
  const std::size_t first = base.num_workloads();
  std::vector<std::size_t> added(workloads.size() - first);
  std::iota(added.begin(), added.end(), first);
  const CounterMatrix delta(
      base.suite_name(),
      std::vector<std::string>(workloads.begin() + first, workloads.end()),
      base.counter_names(), values.select_rows(added));
  std::istringstream series_in(series_text);
  ingest::CsvStream series_stream(series_in, kTextOptions);
  const CounterMatrix with_series =
      attach_series(delta, series_stream, "<delta series csv>");

  Series series;
  series.reserve(workloads.size());
  append_series_of(base, series);
  append_series_of(with_series, series);
  return CounterMatrix(base.suite_name(), std::move(workloads),
                       base.counter_names(), std::move(values),
                       std::move(series));
}

CounterMatrix append_samples_csv_text(
    const CounterMatrix& base, const std::string& series_text,
    std::vector<std::size_t>* touched_workloads) {
  if (!base.has_series()) {
    throw std::logic_error(
        "append_samples_csv_text: base matrix carries no series");
  }
  Series series;
  series.reserve(base.num_workloads());
  append_series_of(base, series);
  std::istringstream in(series_text);
  ingest::CsvStream stream(in, kTextOptions);
  if (read_series_rows(stream, base, "<delta series csv>", series) == 0) {
    throw std::runtime_error("'<delta series csv>': no data rows");
  }
  if (touched_workloads != nullptr) {
    touched_workloads->clear();
    for (std::size_t w = 0; w < base.num_workloads(); ++w) {
      for (std::size_t c = 0; c < base.num_counters(); ++c) {
        if (series[w][c].size() != base.series(w, c).size()) {
          touched_workloads->push_back(w);
          break;
        }
      }
    }
  }
  return CounterMatrix(base.suite_name(), base.workload_names(),
                       base.counter_names(), base.values(), std::move(series));
}

std::vector<PerfStatRecord> parse_perf_stat(const std::string& text) {
  std::vector<PerfStatRecord> records;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;
  std::uint64_t consumed = 0;
  ingest::CellScanner scanner;
  while (std::getline(in, line)) {
    ++line_no;
    offset = consumed;
    consumed += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    scanner.scan(line, line_no, offset);
    const auto& cells = scanner.cells();
    if (cells.size() < 3) {
      throw std::runtime_error("perf-stat line " + std::to_string(line_no) +
                               ": expected at least 3 fields");
    }
    PerfStatRecord record;
    record.event = std::string(cells[2]);
    if (record.event.empty()) {
      throw std::runtime_error("perf-stat line " + std::to_string(line_no) +
                               ": empty event name");
    }
    if (cells[0] == "<not counted>" || cells[0] == "<not supported>") {
      record.counted = false;
    } else {
      record.value = parse_double(cells[0], line_no, offset);
    }
    if (cells.size() >= 5 && !cells[4].empty()) {
      record.pct_running = parse_double(cells[4], line_no, offset);
    }
    records.push_back(std::move(record));
  }
  return records;
}

CounterMatrix counter_matrix_from_perf_stat(
    const std::string& suite_name,
    const std::vector<std::pair<std::string, std::string>>&
        workload_outputs) {
  if (workload_outputs.empty()) {
    throw std::invalid_argument(
        "counter_matrix_from_perf_stat: no workloads");
  }

  std::vector<std::string> counters;
  std::vector<std::string> workloads;
  la::Matrix values;
  for (const auto& [workload, text] : workload_outputs) {
    const auto records = parse_perf_stat(text);
    if (records.empty()) {
      throw std::runtime_error("perf-stat output for workload '" + workload +
                               "' contains no events");
    }
    std::vector<std::string> events;
    std::vector<double> row;
    for (const auto& record : records) {
      if (!record.counted) {
        throw std::runtime_error(
            "workload '" + workload + "': event '" + record.event +
            "' was not counted — request fewer events per run");
      }
      events.push_back(record.event);
      row.push_back(record.value);
    }
    if (counters.empty()) {
      counters = events;
    } else if (events != counters) {
      throw std::runtime_error("workload '" + workload +
                               "': event list differs from the first "
                               "workload's");
    }
    workloads.push_back(workload);
    values.append_row(row);
  }
  return CounterMatrix(suite_name, std::move(workloads), std::move(counters),
                       std::move(values));
}

PerfIntervalData parse_perf_stat_intervals(const std::string& text) {
  PerfIntervalData data;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;
  std::uint64_t consumed = 0;
  std::size_t cursor = 0;  // position within the current interval block
  double current_time = -1.0;
  ingest::CellScanner scanner;

  while (std::getline(in, line)) {
    ++line_no;
    offset = consumed;
    consumed += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    scanner.scan(line, line_no, offset);
    const auto& cells = scanner.cells();
    if (cells.size() < 4) {
      throw std::runtime_error("perf-interval line " +
                               std::to_string(line_no) +
                               ": expected at least 4 fields");
    }
    const double timestamp = parse_double(cells[0], line_no, offset);
    const std::string event(cells[3]);
    if (event.empty()) {
      throw std::runtime_error("perf-interval line " +
                               std::to_string(line_no) + ": empty event");
    }
    double value = 0.0;
    if (cells[1] != "<not counted>" && cells[1] != "<not supported>") {
      value = parse_double(cells[1], line_no, offset);
    }

    if (timestamp != current_time) {
      // New interval block begins.
      if (current_time >= 0.0 && cursor != data.events.size()) {
        throw std::runtime_error(
            "perf-interval line " + std::to_string(line_no) +
            ": previous interval is missing events");
      }
      current_time = timestamp;
      cursor = 0;
    }

    if (cursor >= data.events.size()) {
      // New event names may only appear while the first interval block is
      // being discovered (every series still has at most one sample).
      if (!data.series.empty() && data.series[0].size() > 1) {
        throw std::runtime_error("perf-interval line " +
                                 std::to_string(line_no) +
                                 ": unexpected extra event '" + event + "'");
      }
      data.events.push_back(event);
      data.series.emplace_back();
      data.totals.push_back(0.0);
    } else if (data.events[cursor] != event) {
      throw std::runtime_error("perf-interval line " +
                               std::to_string(line_no) + ": expected event '" +
                               data.events[cursor] + "', got '" + event +
                               "'");
    }
    data.series[cursor].push_back(value);
    data.totals[cursor] += value;
    ++cursor;
  }
  if (data.events.empty()) {
    throw std::runtime_error("perf-interval input contains no events");
  }
  if (cursor != data.events.size()) {
    throw std::runtime_error("perf-interval input: last interval truncated");
  }
  return data;
}

CounterMatrix counter_matrix_from_perf_intervals(
    const std::string& suite_name,
    const std::vector<std::pair<std::string, std::string>>&
        workload_outputs) {
  if (workload_outputs.empty()) {
    throw std::invalid_argument(
        "counter_matrix_from_perf_intervals: no workloads");
  }
  std::vector<std::string> counters;
  std::vector<std::string> workloads;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (const auto& [workload, text] : workload_outputs) {
    const PerfIntervalData data = parse_perf_stat_intervals(text);
    if (counters.empty()) {
      counters = data.events;
    } else if (data.events != counters) {
      throw std::runtime_error("workload '" + workload +
                               "': event list differs from the first "
                               "workload's");
    }
    workloads.push_back(workload);
    values.append_row(data.totals);
    series.push_back(data.series);
  }
  return CounterMatrix(suite_name, std::move(workloads), std::move(counters),
                       std::move(values), std::move(series));
}

}  // namespace perspector::core
