// serve::Engine contract tests.
//
// The load-bearing guarantee is determinism: the `report` of a successful
// response must be byte-identical to the one-shot CLI path
// (core::Perspector + core::suite_report) for the same inputs — at any
// thread count, cold or warm cache, via score() or score_batch(), from
// one thread or many. The concurrency test here also rides the
// debug-tsan CI job, which fails on any data race the mix uncovers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/event_group.hpp"
#include "core/perspector.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "serve/engine.hpp"

namespace perspector::serve {
namespace {

constexpr std::uint64_t kInstructions = 20'000;
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

/// The reference: exactly what `perspector demo`/`perspector score` print.
std::string one_shot_report(const core::CounterMatrix& data,
                            const std::string& events = "all") {
  core::PerspectorOptions options;
  options.events = core::EventGroup::by_name(events);
  const auto scores = core::Perspector(options).score_suite(data);
  return core::suite_report(data, scores);
}

ScoreRequest builtin_request(const std::string& suite, const std::string& id) {
  ScoreRequest request;
  request.id = id;
  request.builtin = suite;
  request.instructions = kInstructions;
  return request;
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& snapshot : obs::counters_snapshot()) {
    if (snapshot.name == name) return snapshot.value;
  }
  return 0;
}

TEST(ServeEngine, BuiltinReportMatchesOneShotAtEveryThreadCount) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const std::string expected =
      one_shot_report(simulate_builtin("nbench", kInstructions));

  for (std::size_t threads : kThreadCounts) {
    par::set_thread_count(threads);
    Engine engine;
    // Cold: computed through the full pipeline.
    const ScoreResponse cold = engine.score(builtin_request("nbench", "c"));
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_EQ(cold.report, expected) << "threads=" << threads;
    // Warm: served from the result cache, still the same bytes.
    const ScoreResponse warm = engine.score(builtin_request("nbench", "w"));
    ASSERT_TRUE(warm.ok);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.report, expected) << "threads=" << threads;
    EXPECT_EQ(warm.id, "w");  // ids echo per request, even on hits
  }
}

TEST(ServeEngine, InlineDataAndEventFilterMatchOneShot) {
  ThreadCountGuard guard;
  par::set_thread_count(2);
  const auto data = std::make_shared<const core::CounterMatrix>(
      simulate_builtin("lmbench", kInstructions));

  for (const std::string events : {"all", "llc", "branch"}) {
    ScoreRequest request;
    request.id = events;
    request.data = data;
    request.events = events;
    Engine engine;
    const ScoreResponse response = engine.score(request);
    ASSERT_TRUE(response.ok) << response.message;
    EXPECT_EQ(response.report, one_shot_report(*data, events));
  }
}

TEST(ServeEngine, EventFilterIsPartOfTheCacheKey) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const auto data = std::make_shared<const core::CounterMatrix>(
      simulate_builtin("nbench", kInstructions));
  Engine engine;
  ScoreRequest all;
  all.data = data;
  ScoreRequest llc;
  llc.data = data;
  llc.events = "llc";

  ASSERT_FALSE(engine.score(all).cache_hit);
  // Same bytes, different filter: must be a miss, not a poisoned hit.
  const ScoreResponse filtered = engine.score(llc);
  ASSERT_TRUE(filtered.ok);
  EXPECT_FALSE(filtered.cache_hit);
  EXPECT_EQ(filtered.report, one_shot_report(*data, "llc"));
  EXPECT_EQ(engine.cache_entries(), 2u);
}

TEST(ServeEngine, ZeroCacheBudgetRecomputesEveryTime) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  EngineOptions options;
  options.cache_bytes = 0;
  Engine engine(options);
  const std::string expected =
      one_shot_report(simulate_builtin("nbench", kInstructions));
  for (int i = 0; i < 2; ++i) {
    const ScoreResponse response =
        engine.score(builtin_request("nbench", std::to_string(i)));
    ASSERT_TRUE(response.ok);
    EXPECT_FALSE(response.cache_hit);
    EXPECT_EQ(response.report, expected);
  }
  EXPECT_EQ(engine.cache_entries(), 0u);
}

TEST(ServeEngine, InvalidRequestsAreStructuredBadRequests) {
  Engine engine;
  EXPECT_EQ(engine.score(builtin_request("notasuite", "x")).error,
            "bad_request");
  ScoreRequest empty;
  EXPECT_EQ(engine.score(empty).error, "bad_request");
  ScoreRequest bad_events = builtin_request("nbench", "y");
  bad_events.events = "cachey";
  const ScoreResponse response = engine.score(bad_events);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_NE(response.message.find("event group"), std::string::npos);
}

TEST(ServeEngine, BatchDeduplicatesAndPreservesOrder) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  obs::reset_metrics();
  Engine engine;
  const std::string nbench =
      one_shot_report(simulate_builtin("nbench", kInstructions));
  const std::string lmbench =
      one_shot_report(simulate_builtin("lmbench", kInstructions));

  std::vector<ScoreRequest> batch;
  batch.push_back(builtin_request("nbench", "0"));
  batch.push_back(builtin_request("lmbench", "1"));
  batch.push_back(builtin_request("nbench", "2"));    // dup of 0
  batch.push_back(builtin_request("lmbench", "3"));   // dup of 1
  batch.push_back(builtin_request("nbench", "4"));    // dup of 0
  const auto responses = engine.score_batch(batch);

  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].message;
    EXPECT_EQ(responses[i].id, std::to_string(i));
    EXPECT_EQ(responses[i].report, i % 2 == 0 ? nbench : lmbench);
  }
  // Two computations, three coalesced copies.
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_TRUE(responses[2].cache_hit);
  EXPECT_TRUE(responses[3].cache_hit);
  EXPECT_TRUE(responses[4].cache_hit);
  EXPECT_EQ(counter_value("serve.requests"), 5u);
  EXPECT_EQ(counter_value("serve.cache_miss"), 2u);
  EXPECT_EQ(counter_value("serve.cache_hit"), 3u);
  EXPECT_EQ(counter_value("serve.coalesced"), 3u);
}

TEST(ServeEngine, BatchSharesErrorsAcrossDuplicates) {
  Engine engine;
  std::vector<ScoreRequest> batch;
  batch.push_back(builtin_request("notasuite", "0"));
  batch.push_back(builtin_request("notasuite", "1"));
  const auto responses = engine.score_batch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].error, "bad_request");
  EXPECT_EQ(responses[1].error, "bad_request");
  EXPECT_EQ(responses[1].id, "1");
}

// The ISSUE.md acceptance scenario: N client threads against one warm
// engine at --threads 4, a mix of identical and distinct requests; every
// response byte-identical to the serial one-shot report, and the engine's
// accounting must satisfy cache_hit + cache_miss == requests.
TEST(ServeEngine, ConcurrentMixedClientsStayDeterministic) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const std::string nbench =
      one_shot_report(simulate_builtin("nbench", kInstructions));
  const std::string lmbench =
      one_shot_report(simulate_builtin("lmbench", kInstructions));

  par::set_thread_count(4);
  obs::reset_metrics();
  Engine engine;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 4;
  std::vector<std::vector<ScoreResponse>> responses(kClients);

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&engine, &responses, c] {
      for (std::size_t r = 0; r < kPerClient; ++r) {
        // Half the clients hammer the same suite (coalescing/caching
        // path), half alternate (distinct-content path).
        const bool nb = c % 2 == 0 || r % 2 == 0;
        responses[c].push_back(engine.score(builtin_request(
            nb ? "nbench" : "lmbench",
            std::to_string(c) + ":" + std::to_string(r))));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kPerClient);
    for (std::size_t r = 0; r < kPerClient; ++r) {
      const auto& response = responses[c][r];
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_EQ(response.id,
                std::to_string(c) + ":" + std::to_string(r));
      const bool nb = c % 2 == 0 || r % 2 == 0;
      EXPECT_EQ(response.report, nb ? nbench : lmbench)
          << "client=" << c << " request=" << r;
    }
  }
  const std::uint64_t requests = counter_value("serve.requests");
  EXPECT_EQ(requests, kClients * kPerClient);
  EXPECT_EQ(counter_value("serve.errors"), 0u);
  EXPECT_EQ(counter_value("serve.cache_hit") +
                counter_value("serve.cache_miss"),
            requests);
}

}  // namespace
}  // namespace perspector::serve
