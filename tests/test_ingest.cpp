// Streaming CSV ingestion tests (src/ingest/ + the readers in
// core/io.cpp).
//
// The load-bearing guarantee is byte-identity: cells split the same at
// every chunk size (including 1-byte chunks that split every CRLF and
// quoted cell across chunk boundaries) and with the IO thread on or off,
// and the readers return pinned matrices and pinned error messages.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/io.hpp"
#include "ingest/csv_stream.hpp"
#include "ingest/name_index.hpp"
#include "ingest/number.hpp"

namespace perspector {
namespace {

using core::CounterMatrix;

// The chunk sizes the ISSUE acceptance list names, plus 1 byte (every
// line, CRLF, and quoted cell is sheared across a chunk boundary).
constexpr std::size_t kChunkSizes[] = {1, 64, 4096, 1u << 20};

std::vector<std::vector<std::string>> read_all_rows(
    const std::string& text, const ingest::IngestOptions& options) {
  std::istringstream in(text);
  ingest::CsvStream stream(in, options);
  std::vector<std::vector<std::string>> rows;
  while (stream.next_row()) {
    rows.emplace_back(stream.cells().begin(), stream.cells().end());
  }
  return rows;
}

TEST(CsvStream, SplitsCellsLikeTheSlurpReaderAtEveryChunkSize) {
  // Quoted commas, doubled quotes, CRLF endings, a blank interior line,
  // and a final line with no trailing newline.
  const std::string text =
      "workload,\"c,0\",c1\r\n"
      "\"w \"\"zero\"\"\",1.5,2\n"
      "\n"
      "plain,3,4";
  const std::vector<std::vector<std::string>> expected = {
      {"workload", "c,0", "c1"},
      {"w \"zero\"", "1.5", "2"},
      {"plain", "3", "4"},
  };
  for (std::size_t chunk : kChunkSizes) {
    for (bool io_thread : {false, true}) {
      ingest::IngestOptions options;
      options.chunk_bytes = chunk;
      options.io_thread = io_thread;
      EXPECT_EQ(read_all_rows(text, options), expected)
          << "chunk=" << chunk << " io_thread=" << io_thread;
    }
  }
}

TEST(CsvStream, ReportsLineNumbersAndByteOffsets) {
  //           offset 0            12     19      26
  const std::string text = "h1,h2\r\nw0,1\nskip,2\nlast,3\n";
  ingest::IngestOptions options;
  options.chunk_bytes = 1;  // worst case: every offset crosses a chunk
  options.io_thread = false;
  std::istringstream in(text);
  ingest::CsvStream stream(in, options);
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  while (stream.next_row()) {
    seen.emplace_back(stream.line_no(), stream.byte_offset());
  }
  const std::vector<std::pair<std::size_t, std::uint64_t>> expected = {
      {1, 0}, {2, 7}, {3, 12}, {4, 19}};
  EXPECT_EQ(seen, expected);
}

TEST(CsvStream, StripsBomOnlyOnLineOne) {
  const std::string text = "\xEF\xBB\xBFworkload,c0\nw0,1\n";
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    ingest::IngestOptions options;
    options.chunk_bytes = chunk;
    options.io_thread = false;
    const auto rows = read_all_rows(text, options);
    ASSERT_EQ(rows.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(rows[0][0], "workload") << "chunk=" << chunk;
  }
}

TEST(CsvStream, UnterminatedQuoteThrowsWithLocation) {
  std::istringstream in("workload,c0\nw0,\"broken\n");
  ingest::CsvStream stream(in, {});
  ASSERT_TRUE(stream.next_row());
  try {
    stream.next_row();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CSV line 2 (byte 12): unterminated quote");
  }
}

TEST(CsvStream, CsvLocationFormat) {
  EXPECT_EQ(ingest::csv_location(7, 1234), "CSV line 7 (byte 1234)");
}

TEST(ColumnMap, RearrangesShuffledColumns) {
  const std::vector<std::string_view> header = {"workload", "b", "a", "c"};
  const std::vector<std::string> targets = {"a", "b", "c"};
  ingest::ColumnMap map(header, targets);
  EXPECT_EQ(map.source_cells(), 4u);
  std::vector<std::string_view> out;
  map.rearrange({"w0", "vb", "va", "vc"}, out);
  EXPECT_EQ(out, (std::vector<std::string_view>{"va", "vb", "vc"}));
}

TEST(ColumnMap, RejectsMissingDuplicateAndRaggedInput) {
  const std::vector<std::string> targets = {"a", "b"};
  EXPECT_THROW(ingest::ColumnMap({}, targets), std::invalid_argument);
  EXPECT_THROW(ingest::ColumnMap({"workload", "a"}, targets),
               std::invalid_argument);
  EXPECT_THROW(ingest::ColumnMap({"workload", "a", "b", "a"}, targets),
               std::invalid_argument);
  ingest::ColumnMap map({"workload", "a", "b"}, targets);
  std::vector<std::string_view> out;
  EXPECT_THROW(map.rearrange({"w0", "1"}, out), std::invalid_argument);
}

// ---- the aggregate and series readers, pinned -------------------------------
//
// Every case runs through the file reader and the in-memory `_text` reader.
// The expected matrices and error strings are literals, captured from the
// getline reader that once served small files and every in-memory payload,
// so a reader change that moves one parsed bit or one error byte fails
// here. Chunk-shear coverage lives in the CsvStream tests above.

class StreamedReadTest : public ::testing::Test {
 protected:
  std::string make(const std::string& name, const std::string& content) {
    const std::string p = ::testing::TempDir() + "/perspector_ingest_" + name;
    std::ofstream out(p, std::ios::binary);
    out << content;
    out.close();
    created_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::vector<std::string> created_;
};

using Rows = std::vector<std::vector<double>>;

/// Names, counters and every value bit (so -0.0 is told from 0.0).
void expect_matrix(const CounterMatrix& m,
                   const std::vector<std::string>& workloads,
                   const std::vector<std::string>& counters,
                   const Rows& values, const std::string& label) {
  EXPECT_EQ(m.suite_name(), "s") << label;
  ASSERT_EQ(m.workload_names(), workloads) << label;
  ASSERT_EQ(m.counter_names(), counters) << label;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c < counters.size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.value(w, c)),
                std::bit_cast<std::uint64_t>(values[w][c]))
          << label << " w=" << w << " c=" << c;
    }
  }
}

/// The message of the `E` that `read` throws, or "" when it returns.
template <typename E, typename Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

/// `pattern` with its "{}" (if any) replaced by the input's origin label.
std::string with_origin(std::string pattern, const std::string& origin) {
  const auto pos = pattern.find("{}");
  if (pos != std::string::npos) pattern.replace(pos, 2, origin);
  return pattern;
}

TEST_F(StreamedReadTest, ReadsThePinnedMatrix) {
  // BOM, CRLF rows, a quoted workload with a doubled quote, a quoted
  // counter with a comma, a blank line, cells the exact fast path declines
  // (long significand, 1e23, 20 digits), -0, and a last line without a
  // newline.
  const std::string text =
      "\xEF\xBB\xBFworkload,\"c,0\",c1\r\n"
      "\"w \"\"q\"\"\",1.5,-2e-3\r\n"
      "\n"
      "plain,0.25,17\n"
      "long,0.1000000000000000055511151231257827,1e23\n"
      "wide,12345678901234567890,-0\n"
      "last,3,4";
  const std::vector<std::string> workloads = {"w \"q\"", "plain", "long",
                                              "wide", "last"};
  const std::vector<std::string> counters = {"c,0", "c1"};
  const Rows values = {{1.5, -2e-3},
                       {0.25, 17.0},
                       {0.1, 1e23},
                       {12345678901234567890.0, -0.0},
                       {3.0, 4.0}};
  expect_matrix(core::read_aggregates_csv("s", make("mix.csv", text)),
                workloads, counters, values, "file");
  expect_matrix(core::read_aggregates_csv_text("s", text), workloads, counters,
                values, "text");
}

TEST_F(StreamedReadTest, ReadsThePinnedSeries) {
  const std::string aggregates = "workload,c0,c1\nw0,1,2\nw1,3,4\n";
  const std::string series =
      "\xEF\xBB\xBFworkload,counter,sample,value\r\n"
      "w0,c0,0,0.5\r\n"
      "w1,c1,0,1e-5\n"
      "\n"
      "w0,c0,1,0.1000000000000000055511151231257827\n"
      "w0,c1,0,2\n"
      "w1,c0,0,-3\n"
      "\"w1\",\"c1\",1,7";
  const std::vector<std::vector<std::vector<double>>> expected = {
      {{0.5, 0.1}, {2.0}}, {{-3.0}, {1e-5, 7.0}}};
  const CounterMatrix from_file = core::read_with_series_csv(
      "s", make("sa.csv", aggregates), make("ss.csv", series));
  const CounterMatrix from_text =
      core::read_with_series_csv_text("s", aggregates, series);
  for (const CounterMatrix* m : {&from_file, &from_text}) {
    const std::string label = m == &from_file ? "file" : "text";
    expect_matrix(*m, {"w0", "w1"}, {"c0", "c1"}, {{1, 2}, {3, 4}}, label);
    ASSERT_TRUE(m->has_series()) << label;
    for (std::size_t w = 0; w < 2; ++w) {
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(m->series(w, c), expected[w][c])
            << label << " w=" << w << " c=" << c;
      }
    }
  }
}

TEST_F(StreamedReadTest, LargeFileMatchesTheTextReader) {
  // Over 1 MiB, so the file reader spans several IO chunks.
  std::string text = "workload,a,b,c\n";
  for (std::size_t w = 0; text.size() < (1u << 20) + 4096; ++w) {
    text += "workload-" + std::to_string(w) + "," + std::to_string(w) +
            ".125," + std::to_string(w * 7919 % 100003) + "e-3,-" +
            std::to_string(w % 97) + ".0625\n";
  }
  const CounterMatrix from_file =
      core::read_aggregates_csv("s", make("large.csv", text));
  const CounterMatrix from_text = core::read_aggregates_csv_text("s", text);
  ASSERT_GT(from_file.num_workloads(), 20000u);
  EXPECT_EQ(from_file.workload_names(), from_text.workload_names());
  EXPECT_EQ(from_file.counter_names(), from_text.counter_names());
  EXPECT_TRUE(from_file.values() == from_text.values());
  EXPECT_EQ(from_file.value(3, 1), 23757e-3);
}

TEST_F(StreamedReadTest, AggregateErrorsArePinned) {
  // "{}" is the origin: the path for files, <inline csv> for text.
  const std::vector<std::array<std::string, 3>> cases = {
      {"ragged", "workload,c0,c1\nw0,1\n",
       "CSV line 2 (byte 15): expected 3 cells, got 2"},
      {"nonnum", "workload,c0\nw0,abc\n",
       "CSV line 2 (byte 12): expected a number, got 'abc'"},
      {"nonfinite", "workload,c0\nw0,1\nw1,inf\n",
       "CSV line 3 (byte 17): non-finite value 'inf' is not allowed"},
      {"overflow", "workload,c0\nw0,1e400\n",
       "CSV line 2 (byte 12): expected a number, got '1e400'"},
      {"dup", "workload,c0\nw0,1\nw0,2\n",
       "CSV line 3 (byte 17): duplicate workload 'w0'"},
      {"quote", "workload,c0\n\"w0,1\n",
       "CSV line 2 (byte 12): unterminated quote"},
      {"crlf", "workload,c0\r\nw0,1\r\n\r\nw1,2\r\n",
       "CSV line 3 (byte 19): expected 2 cells, got 1"},
      {"badheader", "nope,c0\nw0,1\n",
       "'{}': header must be 'workload,<counter>,...'"},
      {"narrowheader", "workload\nw0\n",
       "'{}': header must be 'workload,<counter>,...'"},
      {"blankheader", "\nworkload,c0\nw0,1\n",
       "'{}': header must be 'workload,<counter>,...'"},
      {"headeronly", "workload,c0\n\n", "'{}': no data rows"},
      {"empty", "", "'{}': empty file"},
  };
  for (const auto& [name, content, error] : cases) {
    const std::string p = make(name + ".csv", content);
    EXPECT_EQ(error_of<std::runtime_error>(
                  [&] { core::read_aggregates_csv("s", p); }),
              with_origin(error, p))
        << name << " (file)";
    EXPECT_EQ(error_of<std::runtime_error>(
                  [&] { core::read_aggregates_csv_text("s", content); }),
              with_origin(error, "<inline csv>"))
        << name << " (text)";
  }
  EXPECT_EQ(error_of<std::runtime_error>([&] {
              core::read_aggregates_csv("s", "/nonexistent/agg.csv");
            }),
            "cannot open '/nonexistent/agg.csv' for reading");
}

TEST_F(StreamedReadTest, SeriesErrorsArePinned) {
  // "{}" is the series origin: its path, or <inline series csv>.
  const std::string aggregates = "workload,c0\nw0,1\nw1,2\n";
  const std::string head = "workload,counter,sample,value\n";  // 30 bytes
  const std::vector<std::array<std::string, 3>> cases = {
      {"badheader", "workload,counter,sample\nw0,c0,0\n",
       "'{}': header must be 'workload,counter,sample,value'"},
      {"empty", "", "'{}': header must be 'workload,counter,sample,value'"},
      {"cells", head + "w0,c0,0\n", "CSV line 2 (byte 30): expected 4 cells"},
      {"nondense", head + "w0,c0,0,5\nw0,c0,2,6\n",
       "CSV line 3 (byte 40): sample indices must be dense from 0 "
       "(expected 1, got 2)"},
      {"badindex", head + "w0,c0,-1,5\n",
       "CSV line 2 (byte 30): expected an index, got '-1'"},
      {"nonnum", head + "w0,c0,0,x\n",
       "CSV line 2 (byte 30): expected a number, got 'x'"},
      {"nonfinite", head + "w0,c0,0,nan\n",
       "CSV line 2 (byte 30): non-finite value 'nan' is not allowed"},
      {"quote", head + "w0,\"c0,0,5\n",
       "CSV line 2 (byte 30): unterminated quote"},
      {"missing", head + "w0,c0,0,5\n",
       "'{}': no samples for workload 'w1' counter 'c0'"},
      {"norows", head, "'{}': no samples for workload 'w0' counter 'c0'"},
  };
  const std::string agg_path = make("series_agg.csv", aggregates);
  for (const auto& [name, content, error] : cases) {
    const std::string p = make(name + ".series.csv", content);
    EXPECT_EQ(error_of<std::runtime_error>(
                  [&] { core::read_with_series_csv("s", agg_path, p); }),
              with_origin(error, p))
        << name << " (file)";
    EXPECT_EQ(error_of<std::runtime_error>([&] {
                core::read_with_series_csv_text("s", aggregates, content);
              }),
              with_origin(error, "<inline series csv>"))
        << name << " (text)";
  }
}

TEST(DeltaErrors, AppendWorkloadsErrorsArePinned) {
  const CounterMatrix base = CounterMatrix(
      "delta", {"w0", "w1"}, {"c0", "c1"}, la::Matrix{{1.0, 2.0}, {3.0, 4.0}},
      {{{1.0}, {2.0}}, {{3.0}, {4.0}}});
  const std::string head = "workload,counter,sample,value\n";
  const std::string one = head + "w2,c0,0,1\nw2,c1,0,2\n";
  const std::vector<std::array<std::string, 3>> cases = {
      {"", one, "'<delta aggregates csv>': empty file"},
      {"workload,c0\nw2,1\n", one,
       "'<delta aggregates csv>': header must name 'workload' and exactly "
       "the base suite's counters"},
      {"workload,c1,c0\n", one, "'<delta aggregates csv>': no data rows"},
      {"workload,c1,c0\nw2,1\n", one,
       "CSV line 2 (byte 15): expected 3 cells, got 2"},
      {"workload,c1,c0\nw1,1,2\n", one,
       "CSV line 2 (byte 15): duplicate workload 'w1'"},
      {"workload,c1,c0\nw2,1,2\nw2,1,2\n", one,
       "CSV line 3 (byte 22): duplicate workload 'w2'"},
      {"workload,c1,c0\nw2,1,x\n", one,
       "CSV line 2 (byte 15): expected a number, got 'x'"},
      {"workload,c1,c0\nw2,1,2\n", head + "w2,c0,0,1\n",
       "'<delta series csv>': no samples for workload 'w2' counter 'c1'"},
      {"workload,c1,c0\nw2,1,2\n", "",
       "'<delta series csv>': header must be 'workload,counter,sample,value'"},
  };
  for (const auto& [aggregates, series, error] : cases) {
    EXPECT_EQ(error_of<std::runtime_error>([&] {
                core::append_workloads_csv_text(base, aggregates, series);
              }),
              error)
        << aggregates;
  }
  EXPECT_EQ(error_of<std::invalid_argument>([&] {
              core::append_workloads_csv_text(base, "workload,c0,c2\nw2,1,2\n",
                                              one);
            }),
            "ColumnMap: column 'c1' missing from source header");
  const CounterMatrix bare("delta", {"w0"}, {"c0"}, la::Matrix{{1.0}});
  EXPECT_EQ(error_of<std::logic_error>([&] {
              core::append_workloads_csv_text(bare, "workload,c0\nw1,2\n",
                                              head);
            }),
            "append_workloads_csv_text: base has no series but series_text "
            "was supplied");
}

TEST(DeltaErrors, AppendSamplesErrorsArePinned) {
  const CounterMatrix base = CounterMatrix(
      "delta", {"w0", "w1"}, {"c0", "c1"}, la::Matrix{{1.0, 2.0}, {3.0, 4.0}},
      {{{1.0}, {2.0}}, {{3.0}, {4.0}}});
  const std::string head = "workload,counter,sample,value\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "'<delta series csv>': header must be "
           "'workload,counter,sample,value'"},
      {head, "'<delta series csv>': no data rows"},
      {head + "\n", "'<delta series csv>': no data rows"},
      {head + "w0,c0,1\n", "CSV line 2 (byte 30): expected 4 cells"},
      {head + "w0,c0,1,5\nw0,c0,3,6\n",
       "CSV line 3 (byte 40): sample indices must be dense from 0 "
       "(expected 2, got 3)"},
      {head + "w1,c1,0,5\n",
       "CSV line 2 (byte 30): sample indices must be dense from 0 "
       "(expected 1, got 0)"},
      {head + "w1,c1,1,inf\n",
       "CSV line 2 (byte 30): non-finite value 'inf' is not allowed"},
  };
  for (const auto& [series, error] : cases) {
    EXPECT_EQ(error_of<std::runtime_error>(
                  [&] { core::append_samples_csv_text(base, series); }),
              error)
        << series;
  }
  const CounterMatrix bare("delta", {"w0"}, {"c0"}, la::Matrix{{1.0}});
  EXPECT_EQ(error_of<std::logic_error>(
                [&] { core::append_samples_csv_text(bare, head); }),
            "append_samples_csv_text: base matrix carries no series");
}

TEST_F(StreamedReadTest, ErrorsCarryByteOffsets) {
  // "workload,c0\n" is 12 bytes; the bad row starts at byte 12.
  const std::string p = make("offset.csv", "workload,c0\nw0,nan\n");
  try {
    core::read_aggregates_csv("s", p);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CSV line 2 (byte 12)"),
              std::string::npos)
        << e.what();
  }
}

// ---- delta ingestion helpers ----------------------------------------------

CounterMatrix series_suite() {
  la::Matrix values{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<std::vector<std::vector<double>>> series{
      {{1.0, 0.5}, {2.0, 1.0}},
      {{3.0, 1.5}, {4.0, 2.0}},
      {{5.0, 2.5}, {6.0, 3.0}},
  };
  return CounterMatrix("delta", {"w0", "w1", "w2"}, {"c0", "c1"}, values,
                       series);
}

TEST(AppendWorkloads, RearrangesShuffledPayloadColumns) {
  const CounterMatrix base = series_suite();
  // Payload header lists the counters in reverse order; ColumnMap must
  // permute them back into the base layout.
  const CounterMatrix grown = core::append_workloads_csv_text(
      base, "workload,c1,c0\nw3,8,7\n",
      "workload,counter,sample,value\nw3,c0,0,7\nw3,c1,0,8\n");
  ASSERT_EQ(grown.num_workloads(), 4u);
  EXPECT_EQ(grown.workload_names()[3], "w3");
  EXPECT_DOUBLE_EQ(grown.value(3, 0), 7.0);
  EXPECT_DOUBLE_EQ(grown.value(3, 1), 8.0);
  EXPECT_EQ(grown.series(3, 0), (std::vector<double>{7.0}));
}

TEST(AppendSamples, ReportsTouchedWorkloadRows) {
  const CounterMatrix base = series_suite();
  std::vector<std::size_t> touched;
  const CounterMatrix grown = core::append_samples_csv_text(
      base,
      "workload,counter,sample,value\n"
      "w2,c0,2,9\n"
      "w0,c1,2,8\n"
      "w2,c0,3,10\n",
      &touched);
  // Sorted and deduped: w2 gained two samples but appears once.
  EXPECT_EQ(touched, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(grown.series(2, 0), (std::vector<double>{5.0, 2.5, 9.0, 10.0}));
  EXPECT_EQ(grown.series(0, 1), (std::vector<double>{2.0, 1.0, 8.0}));
  // Untouched series and all aggregates are unchanged.
  EXPECT_EQ(grown.series(1, 0), base.series(1, 0));
  EXPECT_TRUE(grown.values() == base.values());
}

TEST(AppendSamples, RejectsNonDenseContinuation) {
  const CounterMatrix base = series_suite();
  // w0/c0 currently has 2 samples; index 5 is a gap.
  EXPECT_THROW(core::append_samples_csv_text(
                   base, "workload,counter,sample,value\nw0,c0,5,1\n"),
               std::runtime_error);
}

TEST(ParseNumber, FastPathIsBitIdenticalToFromChars) {
  // Cells the fast path accepts must carry exactly the bits from_chars
  // would produce — the streamed reader's byte-identity hinges on it.
  const char* cells[] = {
      "0",       "-0",        "0.0",     "-0.0",     "1",
      "42",      "123456789.012",        "0.000123", "00123.450",
      "1e22",    "1e-22",     "5e+3",    "-2.5e-3",  "9.5E2",
      "9007199254740991",     "1023.75", "0.1",      "-0.3",
      "3.14159", "250000000.001",
  };
  for (const char* cell : cells) {
    const std::string_view view(cell);
    double fast = 0.0;
    ASSERT_TRUE(ingest::parse_number(view, fast)) << cell;
    double general = 0.0;
    const auto [ptr, ec] =
        std::from_chars(view.data(), view.data() + view.size(), general);
    ASSERT_EQ(ec, std::errc{}) << cell;
    ASSERT_EQ(ptr, view.data() + view.size()) << cell;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast),
              std::bit_cast<std::uint64_t>(general))
        << cell;
  }
}

TEST(ParseNumber, DefersEverythingElseToTheFallback) {
  // Malformed cells AND correct-but-hard cells (long significands,
  // extreme exponents, bare decimal points, nan/inf) must return false
  // so from_chars keeps sole authority over accept/reject and rounding.
  const char* cells[] = {
      "",     "-",     ".",    "1.",     "1.e5",  "abc", "1,2",
      " 1",   "1 ",    "+1",   "nan",    "inf",   "e5",  "1e",
      "1e+",  "9007199254740993",        "1e23",  "1e-23",
      "1.7976931348623157e308",          "2.2250738585072014e-308",
  };
  for (const char* cell : cells) {
    double value = 0.0;
    EXPECT_FALSE(ingest::parse_number(std::string_view(cell), value)) << cell;
  }
}

TEST(NameIndex, DetectsDuplicatesWhileGrowingFromATinyHint) {
  // Hint of 1 forces several grow() rehashes along the way.
  ingest::NameIndex index(1);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 5000; ++i) {
    names.push_back("workload-" + std::to_string(i));
    ASSERT_EQ(index.insert(names.back(), i, names), ingest::NameIndex::npos)
        << names.back();
  }
  // Every re-insert reports the original row, none a false duplicate.
  EXPECT_EQ(index.insert("workload-0", 5000, names), 0u);
  EXPECT_EQ(index.insert("workload-2500", 5000, names), 2500u);
  EXPECT_EQ(index.insert("workload-4999", 5000, names), 4999u);
  names.push_back("workload-5000");
  EXPECT_EQ(index.insert(names.back(), 5000, names), ingest::NameIndex::npos);
}

}  // namespace
}  // namespace perspector
