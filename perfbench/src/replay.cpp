#include "replay.hpp"

#include <optional>
#include <stdexcept>

#include "core/event_group.hpp"
#include "core/joint_normalize.hpp"
#include "core/perspector.hpp"
#include "core/report.hpp"

namespace perfbench {

namespace core = perspector::core;

namespace {

core::EventGroup group_by_name(const std::string& name) {
  if (name == "all") return core::EventGroup::all();
  if (name == "llc") return core::EventGroup::llc();
  if (name == "tlb") return core::EventGroup::tlb();
  if (name == "branch") return core::EventGroup::branch();
  throw std::invalid_argument("unknown event group '" + name + "'");
}

}  // namespace

std::string replay_score(SpanLog& spans, const core::CounterMatrix& data,
                         const std::string& events,
                         core::ScoringWorkspace& workspace) {
  // The call sequence of core::Perspector::score_suites for one suite
  // with default metric options; any drift shows as a report mismatch.
  const core::PerspectorOptions options;
  core::SuiteScores scores;
  std::optional<core::CounterMatrix> filtered_storage;
  const core::CounterMatrix* filtered = &data;
  perspector::la::Matrix normalized;
  {
    SpanLog::Scope span(spans, "core.score");
    const core::EventGroup group = group_by_name(events);
    if (!group.is_all()) {
      filtered_storage.emplace(
          data.select_counters(group.indices_in(data.counter_names())));
      filtered = &*filtered_storage;
    }
    normalized = std::move(core::joint_minmax_normalize({&filtered->values()}).front());
    scores.suite = filtered->suite_name();
  }
  {
    SpanLog::Scope span(spans, "cluster");
    scores.cluster_detail = core::cluster_score(*filtered, options.cluster);
    scores.cluster = scores.cluster_detail.score;
  }
  if (filtered->has_series()) {
    SpanLog::Scope span(spans, "dtw");
    if (!workspace.trend_primed()) workspace.prime_trend(*filtered, options.trend);
    std::vector<std::size_t> rows;
    scores.trend_detail =
        workspace.map_rows(*filtered, options.trend, rows)
            ? workspace.trend_score_from_cache(rows)
            : core::trend_score(*filtered, options.trend);
    scores.trend = scores.trend_detail.score;
  }
  {
    SpanLog::Scope span(spans, "pca");
    scores.coverage_detail = core::coverage_score(normalized, options.coverage);
    scores.coverage = scores.coverage_detail.score;
  }
  {
    SpanLog::Scope span(spans, "stats");
    scores.spread_detail = core::spread_score(normalized, options.spread);
    scores.spread = scores.spread_detail.score;
  }
  SpanLog::Scope span(spans, "core.report");
  return core::suite_report(data, scores);
}

std::string replay_score(SpanLog& spans, const core::CounterMatrix& data,
                         const std::string& events) {
  core::ScoringWorkspace workspace;
  return replay_score(spans, data, events, workspace);
}

std::string reference_report(const core::CounterMatrix& data, const std::string& events) {
  core::PerspectorOptions options;
  options.events = group_by_name(events);
  const core::SuiteScores scores = core::Perspector(options).score_suites({data}).front();
  return core::suite_report(data, scores);
}

}  // namespace perfbench
