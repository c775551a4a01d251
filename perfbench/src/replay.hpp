// The scoring pipeline replayed call by call through the public layer
// functions, with a span around each: the traced run's way to assign
// time to layers from outside the program.
#pragma once

#include <string>

#include "common.hpp"
#include "core/counter_matrix.hpp"
#include "core/scoring_workspace.hpp"

namespace perfbench {

/// Scores one suite exactly as serve::Engine does (core::Perspector's
/// single-suite pass under the event filter `events`, then
/// core::suite_report on the unfiltered data) and returns the report.
/// Spans: core.score (filter + joint normalization), cluster, dtw
/// (trend prime or cached lookup on `workspace`), pca (coverage), stats
/// (spread), core.report.
std::string replay_score(SpanLog& spans, const perspector::core::CounterMatrix& data,
                         const std::string& events,
                         perspector::core::ScoringWorkspace& workspace);

/// Same, on a fresh workspace.
std::string replay_score(SpanLog& spans, const perspector::core::CounterMatrix& data,
                         const std::string& events);

/// The program's reference report for one suite, which the determinism
/// checks compare served reports with: core::Perspector under the event
/// filter `events`, then core::suite_report on the unfiltered data.
std::string reference_report(const perspector::core::CounterMatrix& data,
                             const std::string& events);

}  // namespace perfbench
