#include "serve/backend.hpp"

#include <utility>

#include "core/counter_matrix.hpp"

namespace perspector::serve {

std::string_view mutate_op_name(MutateOp op) {
  switch (op) {
    case MutateOp::LoadSuite:
      return "load_suite";
    case MutateOp::AddWorkload:
      return "add_workload";
    case MutateOp::DropWorkload:
      return "drop_workload";
    case MutateOp::AppendSamples:
      return "append_samples";
  }
  return "load_suite";
}

std::string_view job_op_name(JobOp op) {
  switch (op) {
    case JobOp::Submit:
      return "generate_submit";
    case JobOp::Status:
      return "job_status";
    case JobOp::Watch:
      return "job_watch";
    case JobOp::Cancel:
      return "job_cancel";
    case JobOp::List:
      return "job_list";
  }
  return "job_status";
}

JobResponse ScoreBackend::job(const JobRequest& request) {
  JobResponse response;
  response.id = request.id;
  response.ok = false;
  response.error = "bad_request";
  response.message = "this backend does not support async jobs";
  response.trace_id = request.trace_id;
  return response;
}

bool ScoreBackend::jobs_runnable() { return false; }

void ScoreBackend::jobs_step() {}

MutateResponse mutate_error(const MutateRequest& request, std::string error,
                            std::string message) {
  MutateResponse response;
  response.id = request.id;
  response.suite = request.suite;
  response.ok = false;
  response.error = std::move(error);
  response.message = std::move(message);
  response.trace_id = request.trace_id;
  return response;
}

MutateResponse ScoreBackend::mutate(const MutateRequest& request) {
  return mutate_error(request, "bad_request",
                      "this backend does not support resident-suite mutation");
}

Key128 compute_content_key(const ScoreRequest& request, DigestCache* digests) {
  if (!request.builtin.empty()) {
    return ContentHasher{}
        .str("builtin-suite")
        .str(request.builtin)
        .u64(request.instructions)
        .digest();
  }
  if (!request.csv_text.empty()) {
    return ContentHasher{}
        .str("csv-suite")
        .str(request.csv_name)
        .str(request.csv_text)
        .str(request.series_text)
        .digest();
  }
  if (request.data) {
    if (digests != nullptr) return digests->matrix_digest(request.data);
    ContentHasher hasher;
    hash_counter_matrix(hasher, *request.data);
    return hasher.digest();
  }
  // Nothing to score; the request will be rejected, but content_key must
  // not throw (trace derivation happens before validation).
  return ContentHasher{}.str("empty-request").digest();
}

Key128 result_cache_key(const Key128& content_key,
                        const std::string& events) {
  return ContentHasher{}
      .u64(content_key.hi)
      .u64(content_key.lo)
      .str(events)
      .str(kCodeVersion)
      .digest();
}

}  // namespace perspector::serve
