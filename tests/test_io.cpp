#include "core/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perspector::core {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "/perspector_io_" + name;
  }
  void write_file(const std::string& p, const std::string& content) {
    std::ofstream out(p);
    out << content;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string make(const std::string& name, const std::string& content) {
    const std::string p = path(name);
    write_file(p, content);
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

CounterMatrix sample_matrix() {
  la::Matrix values{{1.5, 2.0}, {3.25, 4.0}};
  std::vector<std::vector<std::vector<double>>> series{
      {{1.0, 0.5}, {2.0}},
      {{3.0, 0.25}, {4.0}},
  };
  return CounterMatrix("io-demo", {"alpha", "beta,comma"}, {"c0", "c1"},
                       values, series);
}

TEST_F(IoTest, AggregateRoundTrip) {
  const auto m = sample_matrix();
  const std::string p = path("agg.csv");
  created_.push_back(p);
  write_aggregates_csv(m, p);
  const CounterMatrix back = read_aggregates_csv("io-demo", p);
  EXPECT_EQ(back.workload_names(), m.workload_names());
  EXPECT_EQ(back.counter_names(), m.counter_names());
  EXPECT_LT(back.values().max_abs_diff(m.values()), 1e-12);
  EXPECT_FALSE(back.has_series());
}

TEST_F(IoTest, SeriesRoundTrip) {
  const auto m = sample_matrix();
  const std::string agg = path("agg2.csv");
  const std::string ser = path("ser2.csv");
  created_.push_back(agg);
  created_.push_back(ser);
  write_aggregates_csv(m, agg);
  write_series_csv(m, ser);
  const CounterMatrix back = read_with_series_csv("io-demo", agg, ser);
  ASSERT_TRUE(back.has_series());
  EXPECT_EQ(back.series(0, 0), (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(back.series(1, 1), (std::vector<double>{4.0}));
}

TEST_F(IoTest, WriteSeriesWithoutSeriesThrows) {
  la::Matrix values(1, 1, 1.0);
  const CounterMatrix bare("s", {"w"}, {"c"}, values);
  EXPECT_THROW(write_series_csv(bare, path("nope.csv")), std::logic_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_aggregates_csv("s", "/nonexistent/file.csv"),
               std::runtime_error);
}

TEST_F(IoTest, RejectsBadHeader) {
  const auto p = make("badheader.csv", "nope,c0\nw0,1\n");
  EXPECT_THROW(read_aggregates_csv("s", p), std::runtime_error);
}

TEST_F(IoTest, RejectsRaggedRow) {
  const auto p = make("ragged.csv", "workload,c0,c1\nw0,1\n");
  try {
    read_aggregates_csv("s", p);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST_F(IoTest, RejectsNonNumericCell) {
  const auto p = make("nan.csv", "workload,c0\nw0,abc\n");
  EXPECT_THROW(read_aggregates_csv("s", p), std::runtime_error);
}

TEST_F(IoTest, RejectsDuplicateWorkload) {
  const auto p = make("dup.csv", "workload,c0\nw0,1\nw0,2\n");
  EXPECT_THROW(read_aggregates_csv("s", p), std::runtime_error);
}

TEST_F(IoTest, RejectsEmptyFile) {
  const auto p = make("empty.csv", "");
  EXPECT_THROW(read_aggregates_csv("s", p), std::runtime_error);
  const auto headers_only = make("headeronly.csv", "workload,c0\n");
  EXPECT_THROW(read_aggregates_csv("s", headers_only), std::runtime_error);
}

TEST_F(IoTest, QuotedCellsParsed) {
  const auto p = make("quoted.csv",
                      "workload,\"c,0\"\n\"w \"\"zero\"\"\",1.5\n");
  const CounterMatrix m = read_aggregates_csv("s", p);
  EXPECT_EQ(m.counter_names()[0], "c,0");
  EXPECT_EQ(m.workload_names()[0], "w \"zero\"");
  EXPECT_DOUBLE_EQ(m.value(0, 0), 1.5);
}

TEST_F(IoTest, SeriesRejectsNonDenseIndices) {
  const auto agg = make("a.csv", "workload,c0\nw0,1\n");
  const auto ser =
      make("s.csv", "workload,counter,sample,value\nw0,c0,1,5\n");
  EXPECT_THROW(read_with_series_csv("s", agg, ser), std::runtime_error);
}

TEST_F(IoTest, SeriesRejectsMissingCoverage) {
  const auto agg = make("a2.csv", "workload,c0,c1\nw0,1,2\n");
  const auto ser =
      make("s2.csv", "workload,counter,sample,value\nw0,c0,0,5\n");
  EXPECT_THROW(read_with_series_csv("s", agg, ser), std::runtime_error);
}

// ---- interchange hardening (external CSV producers) ------------------------

TEST_F(IoTest, AcceptsLeadingUtf8Bom) {
  const auto p = make("bom.csv", "\xef\xbb\xbfworkload,c0\nw0,1.5\n");
  const CounterMatrix m = read_aggregates_csv("s", p);
  EXPECT_EQ(m.counter_names()[0], "c0");  // BOM must not stick to the header
  EXPECT_DOUBLE_EQ(m.value(0, 0), 1.5);
}

TEST_F(IoTest, AcceptsCrlfLineEndings) {
  const auto p = make("crlf.csv", "workload,c0,c1\r\nw0,1,2\r\nw1,3,4\r\n");
  const CounterMatrix m = read_aggregates_csv("s", p);
  ASSERT_EQ(m.num_workloads(), 2u);
  EXPECT_DOUBLE_EQ(m.value(1, 1), 4.0);
  // CRLF must not leak into the last cell's text (a quoted final cell is
  // the risky case).
  const auto q = make("crlfq.csv", "workload,c0\nw0,\"1.5\"\r\n");
  EXPECT_DOUBLE_EQ(read_aggregates_csv("s", q).value(0, 0), 1.5);
}

TEST_F(IoTest, SeriesAcceptsBomAndCrlf) {
  const auto agg = make("hb_a.csv", "workload,c0\nw0,1\n");
  const auto ser = make(
      "hb_s.csv",
      "\xef\xbb\xbfworkload,counter,sample,value\r\nw0,c0,0,1\r\nw0,c0,1,2\r\n");
  const CounterMatrix m = read_with_series_csv("s", agg, ser);
  ASSERT_TRUE(m.has_series());
  EXPECT_EQ(m.series(0, 0), (std::vector<double>{1.0, 2.0}));
}

TEST_F(IoTest, RejectsNonFiniteCellsWithLineNumber) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "1e999"}) {
    const auto p =
        make(std::string("nonfinite_") + bad + ".csv",
             std::string("workload,c0\nw0,1\nw1,") + bad + "\n");
    try {
      read_aggregates_csv("s", p);
      FAIL() << "expected throw for '" << bad << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
  }
}

TEST_F(IoTest, SeriesRejectsNonFiniteSamples) {
  const auto agg = make("nf_a.csv", "workload,c0\nw0,1\n");
  const auto ser = make("nf_s.csv",
                        "workload,counter,sample,value\nw0,c0,0,inf\n");
  EXPECT_THROW(read_with_series_csv("s", agg, ser), std::runtime_error);
}

TEST(IoText, InMemoryReadersMatchFileReaders) {
  const CounterMatrix m =
      read_aggregates_csv_text("wired", "workload,c0,c1\nw0,1,2\nw1,3,4\n");
  EXPECT_EQ(m.suite_name(), "wired");
  ASSERT_EQ(m.num_workloads(), 2u);
  EXPECT_DOUBLE_EQ(m.value(1, 0), 3.0);

  const CounterMatrix with_series = read_with_series_csv_text(
      "wired", "workload,c0\nw0,1\n",
      "workload,counter,sample,value\nw0,c0,0,0.5\nw0,c0,1,0.5\n");
  ASSERT_TRUE(with_series.has_series());
  EXPECT_EQ(with_series.series(0, 0), (std::vector<double>{0.5, 0.5}));

  // Same validation and line numbering as the file path.
  try {
    read_aggregates_csv_text("wired", "workload,c0\nw0,nan\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

/// The message of the std::invalid_argument `read` throws, or "".
template <typename Read>
std::string invalid_argument_of(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST_F(IoTest, SeriesRejectsUnknownNames) {
  // "workload,counter,sample,value\n" is 30 bytes: the bad row is line 2
  // at byte 30, in the file, the inline text and an append_samples delta.
  const std::string aggregates = "workload,c0\nw0,1\n";
  const std::string head = "workload,counter,sample,value\n";
  const auto agg = make("a3.csv", aggregates);
  const CounterMatrix base = read_with_series_csv_text(
      "s", aggregates, head + "w0,c0,0,1\n");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"mystery,c0,0,5\n",
       "CSV line 2 (byte 30): CounterMatrix: unknown workload 'mystery'"},
      {"w0,mystery,0,5\n",
       "CSV line 2 (byte 30): CounterMatrix: unknown counter 'mystery'"},
  };
  for (const auto& [row, error] : cases) {
    const auto ser = make("s3.csv", head + row);
    EXPECT_EQ(invalid_argument_of(
                  [&] { read_with_series_csv("s", agg, ser); }),
              error);
    EXPECT_EQ(invalid_argument_of([&] {
                read_with_series_csv_text("s", aggregates, head + row);
              }),
              error);
    EXPECT_EQ(invalid_argument_of(
                  [&] { append_samples_csv_text(base, head + row); }),
              error);
  }
}

TEST_F(IoTest, FileWritersAreLossless) {
  // Values that need all 17 significant digits to survive a round trip.
  la::Matrix values{{0.1 + 0.2, 1.0 / 3}, {2.0 / 3, 1e-300 / 7}};
  std::vector<std::vector<std::vector<double>>> series{
      {{0.1 + 0.2, 1.0 / 7}, {1.0 / 3}},
      {{2.0 / 3}, {123456789.123456789, -1.0 / 9}},
  };
  const CounterMatrix m("exact", {"w0", "w1"}, {"c0", "c1"}, values, series);
  const std::string agg = path("exact_agg.csv");
  const std::string ser = path("exact_ser.csv");
  created_.push_back(agg);
  created_.push_back(ser);
  write_aggregates_csv(m, agg);
  write_series_csv(m, ser);
  const CounterMatrix back = read_with_series_csv("exact", agg, ser);
  EXPECT_TRUE(back.values() == m.values());
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(back.series(w, c), m.series(w, c)) << w << "," << c;
    }
  }
}

TEST(PerfStat, ParsesTypicalOutput) {
  const std::string text =
      "# started on Tue Jul  7 12:00:00 2026\n"
      "\n"
      "123456789,,cpu-cycles,2000000000,100.00,,\n"
      "9876,,LLC-load-misses,2000000000,84.50,,\n";
  const auto records = parse_perf_stat(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, "cpu-cycles");
  EXPECT_DOUBLE_EQ(records[0].value, 123456789.0);
  EXPECT_DOUBLE_EQ(records[0].pct_running, 100.0);
  EXPECT_TRUE(records[0].counted);
  EXPECT_EQ(records[1].event, "LLC-load-misses");
  EXPECT_DOUBLE_EQ(records[1].pct_running, 84.5);
}

TEST(PerfStat, HandlesNotCounted) {
  const auto records =
      parse_perf_stat("<not counted>,,dTLB-load-misses,0,0.00,,\n"
                      "<not supported>,,LLC-stores,0,0.00,,\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].counted);
  EXPECT_FALSE(records[1].counted);
}

TEST(PerfStat, RejectsMalformedLines) {
  EXPECT_THROW(parse_perf_stat("justonefield\n"), std::runtime_error);
  EXPECT_THROW(parse_perf_stat("abc,,cpu-cycles,1,100\n"),
               std::runtime_error);
  EXPECT_THROW(parse_perf_stat("5,,,1,100\n"), std::runtime_error);
}

TEST(PerfStat, BuildsCounterMatrix) {
  const std::string a =
      "100,,cpu-cycles,1,100\n50,,branch-misses,1,100\n";
  const std::string b =
      "200,,cpu-cycles,1,100\n80,,branch-misses,1,100\n";
  const auto m = counter_matrix_from_perf_stat("suite", {{"wa", a}, {"wb", b}});
  EXPECT_EQ(m.num_workloads(), 2u);
  EXPECT_EQ(m.counter_names(),
            (std::vector<std::string>{"cpu-cycles", "branch-misses"}));
  EXPECT_DOUBLE_EQ(m.value(1, 0), 200.0);
  EXPECT_DOUBLE_EQ(m.value(0, 1), 50.0);
}

TEST(PerfStatIntervals, ParsesTwoIntervalBlocks) {
  const std::string text =
      "# interval mode\n"
      "1.000,100,,cpu-cycles,1,100\n"
      "1.000,5,,branch-misses,1,100\n"
      "2.000,140,,cpu-cycles,1,100\n"
      "2.000,9,,branch-misses,1,100\n";
  const auto data = parse_perf_stat_intervals(text);
  ASSERT_EQ(data.events.size(), 2u);
  EXPECT_EQ(data.events[0], "cpu-cycles");
  EXPECT_EQ(data.series[0], (std::vector<double>{100.0, 140.0}));
  EXPECT_EQ(data.series[1], (std::vector<double>{5.0, 9.0}));
  EXPECT_DOUBLE_EQ(data.totals[0], 240.0);
  EXPECT_DOUBLE_EQ(data.totals[1], 14.0);
}

TEST(PerfStatIntervals, NotCountedBecomesZero) {
  const auto data = parse_perf_stat_intervals(
      "1.0,<not counted>,,cpu-cycles,1,0\n"
      "2.0,50,,cpu-cycles,1,100\n");
  EXPECT_EQ(data.series[0], (std::vector<double>{0.0, 50.0}));
}

TEST(PerfStatIntervals, RejectsMalformedInput) {
  EXPECT_THROW(parse_perf_stat_intervals(""), std::runtime_error);
  EXPECT_THROW(parse_perf_stat_intervals("1.0,5,,\n"), std::runtime_error);
  // Missing event in the second block.
  EXPECT_THROW(parse_perf_stat_intervals("1.0,1,,a,1\n"
                                         "1.0,2,,b,1\n"
                                         "2.0,3,,a,1\n"
                                         "3.0,4,,a,1\n"),
               std::runtime_error);
  // Unknown extra event after discovery.
  EXPECT_THROW(parse_perf_stat_intervals("1.0,1,,a,1\n"
                                         "2.0,3,,a,1\n"
                                         "2.0,4,,b,1\n"),
               std::runtime_error);
  // Out-of-order event name.
  EXPECT_THROW(parse_perf_stat_intervals("1.0,1,,a,1\n"
                                         "1.0,2,,b,1\n"
                                         "2.0,3,,b,1\n"
                                         "2.0,4,,a,1\n"),
               std::runtime_error);
  // Truncated final block.
  EXPECT_THROW(parse_perf_stat_intervals("1.0,1,,a,1\n"
                                         "1.0,2,,b,1\n"
                                         "2.0,3,,a,1\n"),
               std::runtime_error);
}

TEST(PerfStatIntervals, BuildsCounterMatrixWithSeries) {
  const std::string wa =
      "1.0,10,,cpu-cycles,1,100\n2.0,20,,cpu-cycles,1,100\n";
  const std::string wb =
      "1.0,30,,cpu-cycles,1,100\n2.0,40,,cpu-cycles,1,100\n";
  const auto m =
      counter_matrix_from_perf_intervals("s", {{"wa", wa}, {"wb", wb}});
  EXPECT_TRUE(m.has_series());
  EXPECT_DOUBLE_EQ(m.value(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(m.value(1, 0), 70.0);
  EXPECT_EQ(m.series(1, 0), (std::vector<double>{30.0, 40.0}));

  EXPECT_THROW(counter_matrix_from_perf_intervals("s", {}),
               std::invalid_argument);
  const std::string other_event = "1.0,10,,branch-misses,1,100\n";
  EXPECT_THROW(counter_matrix_from_perf_intervals(
                   "s", {{"wa", wa}, {"wb", other_event}}),
               std::runtime_error);
}

TEST(PerfStat, MatrixRejectsInconsistencies) {
  EXPECT_THROW(counter_matrix_from_perf_stat("s", {}),
               std::invalid_argument);
  // Uncounted event.
  EXPECT_THROW(counter_matrix_from_perf_stat(
                   "s", {{"w", "<not counted>,,cpu-cycles,1,0\n"}}),
               std::runtime_error);
  // Mismatched event lists.
  EXPECT_THROW(
      counter_matrix_from_perf_stat(
          "s", {{"wa", "1,,cpu-cycles,1,100\n"},
                {"wb", "2,,branch-misses,1,100\n"}}),
      std::runtime_error);
  // Empty output.
  EXPECT_THROW(counter_matrix_from_perf_stat("s", {{"w", "# nothing\n"}}),
               std::runtime_error);
}

}  // namespace
}  // namespace perspector::core
