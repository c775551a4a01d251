// Round-trip property of the NDJSON protocol: for every message with a
// reader, each line a writer emits parses back to the same fields and
// re-serializes to the same bytes, over seeded random messages. Strings
// cover empty text, quotes, backslashes, control characters and every
// byte 0x01-0xff; integers range over 0..2^53 (json::Value holds numbers
// as doubles); doubles over every finite bit pattern.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/io.hpp"
#include "jobs/job.hpp"
#include "serve/protocol.hpp"

namespace perspector::serve {
namespace {

constexpr int kCases = 300;

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool coin() { return below(2) == 1; }
  /// Below 2^b for a random b in 0..53: small and large values alike.
  std::uint64_t u53() {
    const std::uint64_t bits = below(54);
    return bits == 0 ? 0 : rng_() >> (64 - bits);
  }
  std::uint64_t u64() { return rng_(); }

  double finite() {
    for (;;) {
      const std::uint64_t bits = rng_();
      double value = 0.0;
      std::memcpy(&value, &bits, sizeof value);
      if (std::isfinite(value)) return value;
    }
  }

  std::string text() {
    static const char kSpecial[] = {'"', '\\', '\n', '\t', '\x01', '\x1f',
                                    '\x7f', '/', '\xc3', '\xa9', '\xff'};
    std::string out;
    const std::uint64_t length = below(4) == 0 ? 0 : below(12);
    for (std::uint64_t i = 0; i < length; ++i) {
      out += coin() ? kSpecial[below(sizeof kSpecial)]
                    : static_cast<char>(1 + below(255));
    }
    return out;
  }
  std::string nonempty() {
    std::string out = text();
    return out.empty() ? std::string("x") : out;
  }
  std::string job_id() {
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (int i = 0; i < 16; ++i) out += kHex[below(16)];
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

/// Every byte 0x01..0xff once, so each is exercised on every run.
std::string all_bytes() {
  std::string out;
  for (int byte = 1; byte <= 0xff; ++byte) out += static_cast<char>(byte);
  return out;
}

jobs::BestCandidate random_best(Gen& gen) {
  jobs::BestCandidate best;
  if (gen.coin()) return best;
  best.valid = true;
  best.candidate = gen.u53();
  best.deviation_pct = gen.finite();
  for (std::uint64_t i = gen.below(5); i > 0; --i) {
    best.per_score_deviation_pct.push_back(gen.finite());
    best.indices.push_back(gen.u53());
    best.names.push_back(gen.text());
  }
  return best;
}

jobs::JobStatus random_status(Gen& gen) {
  jobs::JobStatus status;
  status.id = gen.text();
  status.state = static_cast<jobs::JobState>(gen.below(5));
  status.client = gen.text();
  status.evaluated = gen.u53();
  status.total = gen.u53();
  status.best = random_best(gen);
  status.resumed = gen.coin();
  status.error = gen.text();
  return status;
}

void expect_same_status(const jobs::JobStatus& a, const jobs::JobStatus& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.resumed, b.resumed);
  EXPECT_EQ(a.error, b.error);
}

TEST(ProtocolRoundTrip, ScoreResponses) {
  Gen gen(1);
  for (int i = 0; i < kCases; ++i) {
    ScoreResponse response;
    response.id = i == 0 ? all_bytes() : gen.text();
    response.ok = gen.coin();
    if (response.ok) {
      response.cache_hit = gen.coin();
      response.report = i == 0 ? all_bytes() : gen.text();
    } else {
      response.error = gen.text();
      response.message = gen.text();
    }
    response.trace_id = gen.coin() ? 0 : gen.u64();
    const std::string line = serialize_response(response);
    ScoreResponse back;
    ASSERT_TRUE(parse_score_response(line, back)) << line;
    EXPECT_EQ(serialize_response(back), line);
    EXPECT_EQ(back.id, response.id);
    EXPECT_EQ(back.ok, response.ok);
    EXPECT_EQ(back.cache_hit, response.cache_hit);
    EXPECT_EQ(back.report, response.report);
    EXPECT_EQ(back.error, response.error);
    EXPECT_EQ(back.message, response.message);
    EXPECT_EQ(back.trace_id, response.trace_id);
  }
}

TEST(ProtocolRoundTrip, MutateResponses) {
  Gen gen(2);
  for (int i = 0; i < kCases; ++i) {
    MutateResponse response;
    response.id = gen.text();
    response.ok = gen.coin();
    if (response.ok) {
      response.suite = i == 0 ? all_bytes() : gen.text();
      response.version = gen.u53();
      response.cache_hit = gen.coin();
      response.report = gen.text();
    } else {
      response.error = gen.text();
      response.message = gen.text();
    }
    response.trace_id = gen.coin() ? 0 : gen.u64();
    const std::string line = serialize_mutate_response(response);
    MutateResponse back;
    ASSERT_TRUE(parse_mutate_response(line, back)) << line;
    EXPECT_EQ(serialize_mutate_response(back), line);
    EXPECT_EQ(back.id, response.id);
    EXPECT_EQ(back.ok, response.ok);
    EXPECT_EQ(back.suite, response.suite);
    EXPECT_EQ(back.version, response.version);
    EXPECT_EQ(back.cache_hit, response.cache_hit);
    EXPECT_EQ(back.report, response.report);
    EXPECT_EQ(back.error, response.error);
    EXPECT_EQ(back.message, response.message);
    EXPECT_EQ(back.trace_id, response.trace_id);
  }
}

TEST(ProtocolRoundTrip, JobResponses) {
  Gen gen(3);
  for (int i = 0; i < kCases; ++i) {
    JobResponse response;
    response.id = gen.text();
    response.op = static_cast<JobOp>(gen.below(5));
    response.ok = gen.coin();
    response.trace_id = gen.coin() ? 0 : gen.u64();
    if (!response.ok) {
      response.error = gen.text();
      response.message = gen.text();
    } else if (response.op == JobOp::List) {
      for (std::uint64_t n = gen.below(4); n > 0; --n) {
        response.jobs.push_back(random_status(gen));
      }
    } else {
      response.status = random_status(gen);
      if (response.op == JobOp::Submit) response.duplicate = gen.coin();
      if (response.op == JobOp::Watch) {
        for (std::uint64_t n = gen.below(4); n > 0; --n) {
          jobs::JobProgress record;
          record.seq = gen.u53();
          record.evaluated = gen.u53();
          record.total = gen.u53();
          record.best = random_best(gen);
          response.progress.push_back(record);
        }
        response.next = gen.u53();
      }
    }
    // Errors never carry the worker index.
    if (response.ok && gen.coin()) {
      response.worker = static_cast<int>(gen.below(1u << 31));
    }
    const std::string line = serialize_job_response(response);
    JobResponse back;
    ASSERT_TRUE(parse_job_response(line, back)) << line;
    EXPECT_EQ(serialize_job_response(back), line);
    EXPECT_EQ(back.id, response.id);
    EXPECT_EQ(back.ok, response.ok);
    EXPECT_EQ(back.error, response.error);
    EXPECT_EQ(back.message, response.message);
    EXPECT_EQ(back.trace_id, response.trace_id);
    EXPECT_EQ(back.worker, response.worker);
    if (!response.ok) continue;
    // A cancel answer is a bare status on the wire.
    if (response.op != JobOp::Cancel) {
      EXPECT_EQ(back.op, response.op);
    }
    EXPECT_EQ(back.duplicate, response.duplicate);
    ASSERT_EQ(back.jobs.size(), response.jobs.size());
    for (std::size_t j = 0; j < back.jobs.size(); ++j) {
      expect_same_status(back.jobs[j], response.jobs[j]);
    }
    if (response.op == JobOp::List) continue;
    expect_same_status(back.status, response.status);
    ASSERT_EQ(back.progress.size(), response.progress.size());
    for (std::size_t j = 0; j < back.progress.size(); ++j) {
      EXPECT_EQ(back.progress[j].seq, response.progress[j].seq);
      EXPECT_EQ(back.progress[j].evaluated, response.progress[j].evaluated);
      EXPECT_EQ(back.progress[j].total, response.progress[j].total);
      EXPECT_EQ(back.progress[j].best, response.progress[j].best);
    }
    if (response.op == JobOp::Watch) {
      EXPECT_EQ(back.next, response.next);
    }
  }
}

/// A small valid aggregate CSV (and, optionally, its series), so the
/// request reader's CSV parse accepts it.
void random_csv(Gen& gen, std::string& csv, std::string& series) {
  const std::uint64_t workloads = 1 + gen.below(3);
  csv = "workload,c0,c1\n";
  series = gen.coin() ? "workload,counter,sample,value\n" : "";
  char cell[40];
  for (std::uint64_t w = 0; w < workloads; ++w) {
    csv += "w" + std::to_string(w);
    for (int c = 0; c < 2; ++c) {
      std::snprintf(cell, sizeof cell, ",%.17g", gen.finite());
      csv += cell;
      if (series.empty()) continue;
      for (int sample = 0; sample < 2; ++sample) {
        std::snprintf(cell, sizeof cell, "%.17g", gen.finite());
        series += "w" + std::to_string(w) + ",c" + std::to_string(c) + "," +
                  std::to_string(sample) + "," + cell + "\n";
      }
    }
    csv += "\n";
  }
}

TEST(ProtocolRoundTrip, ScoreRequests) {
  Gen gen(4);
  for (int i = 0; i < kCases; ++i) {
    ScoreRequest request;
    request.id = gen.text();
    request.events = i == 0 ? all_bytes() : gen.text();
    request.trace_id = gen.coin() ? 0 : gen.u64();
    if (gen.coin()) request.content_key = Key128{gen.u64(), gen.u64()};
    request.deadline_ms = gen.coin() ? 0 : gen.u53();
    switch (gen.below(3)) {
      case 0:
        request.builtin = gen.nonempty();
        request.instructions = 1 + gen.u53();
        break;
      case 1:
        request.csv_name = gen.text();
        random_csv(gen, request.csv_text, request.series_text);
        break;
      default: {
        // A direct-API matrix travels as its lossless CSV text.
        std::string csv;
        std::string series;
        random_csv(gen, csv, series);
        request.data = std::make_shared<const core::CounterMatrix>(
            series.empty()
                ? core::read_aggregates_csv_text(gen.text(), csv)
                : core::read_with_series_csv_text(gen.text(), csv, series));
      }
    }
    const std::string line = serialize_score_request(request);
    const ParsedRequest parsed = parse_request_line(line);
    ASSERT_TRUE(parsed.ok) << parsed.message << "\n" << line;
    ASSERT_EQ(parsed.op, Op::Score);
    const ScoreRequest& back = parsed.score;
    EXPECT_EQ(serialize_score_request(back), line);
    EXPECT_EQ(back.id, request.id);
    EXPECT_EQ(back.events, request.events);
    EXPECT_EQ(back.trace_id, request.trace_id);
    EXPECT_EQ(back.content_key, request.content_key);
    EXPECT_EQ(back.deadline_ms, request.deadline_ms);
    EXPECT_EQ(back.builtin, request.builtin);
    if (!request.builtin.empty()) {
      EXPECT_EQ(back.instructions, request.instructions);
    } else if (!request.csv_text.empty()) {
      EXPECT_EQ(back.csv_name, request.csv_name);
      EXPECT_EQ(back.csv_text, request.csv_text);
      EXPECT_EQ(back.series_text, request.series_text);
    } else {
      ASSERT_NE(back.data, nullptr);
      EXPECT_EQ(back.data->suite_name(), request.data->suite_name());
      EXPECT_EQ(core::write_aggregates_csv_text(*back.data),
                core::write_aggregates_csv_text(*request.data));
      EXPECT_EQ(back.data->has_series(), request.data->has_series());
    }
  }
}

TEST(ProtocolRoundTrip, MutateRequests) {
  Gen gen(5);
  for (int i = 0; i < kCases; ++i) {
    MutateRequest request;
    request.id = gen.text();
    request.op = static_cast<MutateOp>(gen.below(4));
    request.suite = i == 0 ? all_bytes() : gen.nonempty();
    request.events = gen.text();
    request.csv_text = gen.text();
    request.series_text = gen.text();
    switch (request.op) {
      case MutateOp::LoadSuite:
      case MutateOp::AddWorkload:
        request.csv_text = gen.nonempty();
        break;
      case MutateOp::AppendSamples:
        request.series_text = gen.nonempty();
        break;
      case MutateOp::DropWorkload:
        request.workload = gen.nonempty();
        break;
    }
    request.deadline_ms = gen.coin() ? 0 : gen.u53();
    request.trace_id = gen.coin() ? 0 : gen.u64();
    const std::string line = serialize_mutate_request(request);
    const ParsedRequest parsed = parse_request_line(line);
    ASSERT_TRUE(parsed.ok) << parsed.message << "\n" << line;
    ASSERT_EQ(parsed.op, Op::Mutate);
    const MutateRequest& back = parsed.mutate;
    EXPECT_EQ(serialize_mutate_request(back), line);
    EXPECT_EQ(back.id, request.id);
    EXPECT_EQ(back.op, request.op);
    EXPECT_EQ(back.suite, request.suite);
    EXPECT_EQ(back.workload, request.workload);
    EXPECT_EQ(back.csv_text, request.csv_text);
    EXPECT_EQ(back.series_text, request.series_text);
    EXPECT_EQ(back.events, request.events);
    EXPECT_EQ(back.deadline_ms, request.deadline_ms);
    EXPECT_EQ(back.trace_id, request.trace_id);
  }
}

TEST(ProtocolRoundTrip, JobRequests) {
  Gen gen(6);
  for (int i = 0; i < kCases; ++i) {
    JobRequest request;
    request.id = gen.text();
    request.op = static_cast<JobOp>(gen.below(5));
    request.trace_id = gen.coin() ? 0 : gen.u64();
    if (request.op == JobOp::Submit) {
      jobs::JobSpec& spec = request.spec;
      if (gen.coin()) {
        spec.builtin = gen.nonempty();
      } else {
        spec.csv_name = gen.text();
        spec.csv_text = i == 0 ? all_bytes() : gen.text();
        spec.series_text = gen.text();
      }
      spec.instructions = 1 + gen.u53();
      spec.events = gen.text();
      spec.target_size = gen.u53();
      spec.candidates = gen.u53();
      spec.seed = gen.u53();
      spec.client = gen.text();
    } else if (request.op != JobOp::List) {
      request.job = gen.job_id();
      if (request.op == JobOp::Watch) request.from = gen.u53();
    }
    const std::string line = serialize_job_request(request);
    const ParsedRequest parsed = parse_request_line(line);
    ASSERT_TRUE(parsed.ok) << parsed.message << "\n" << line;
    ASSERT_EQ(parsed.op, Op::Job);
    const JobRequest& back = parsed.job;
    EXPECT_EQ(serialize_job_request(back), line);
    EXPECT_EQ(back.id, request.id);
    EXPECT_EQ(back.op, request.op);
    EXPECT_EQ(back.spec, request.spec);
    EXPECT_EQ(back.job, request.job);
    EXPECT_EQ(back.from, request.from);
    EXPECT_EQ(back.trace_id, request.trace_id);
  }
}

TEST(ProtocolRoundTrip, WorkerHello) {
  Gen gen(7);
  for (int i = 0; i < kCases; ++i) {
    const std::size_t worker = gen.u53();
    const auto pid = static_cast<std::int64_t>(gen.u53());
    const std::string line = serialize_worker_hello(worker, pid);
    std::size_t worker_back = 0;
    std::int64_t pid_back = 0;
    ASSERT_TRUE(parse_worker_hello(line, worker_back, pid_back)) << line;
    EXPECT_EQ(serialize_worker_hello(worker_back, pid_back), line);
    EXPECT_EQ(worker_back, worker);
    EXPECT_EQ(pid_back, pid);
  }
}

}  // namespace
}  // namespace perspector::serve
