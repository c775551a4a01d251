#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <poll.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace perspector::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("client: " + what + ": " + errno_message(errno));
}

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("client: invalid host address '" + host +
                             "' (numeric IPv4 expected)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect to " + host + ":" + std::to_string(port));
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string bytes;
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read");
    }
    if (n == 0) return bytes;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
}

/// Prints every numeric field of every entry in a metrics/stats group
/// object as "name.field value" lines, e.g. "serve.request.latency.p99".
void print_stat_object(std::ostream& out, const json::Value& group) {
  for (const auto& [name, entry] : group.members) {
    if (!entry.is_object()) continue;
    for (const auto& [field, value] : entry.members) {
      if (!value.is_number()) continue;
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.6g", value.number);
      out << name << '.' << field << ' ' << buf << '\n';
    }
  }
}

/// Prints one response line; returns true when it was an ok response.
bool report_response(const std::string& line, std::ostream& out,
                     std::ostream& err) {
  json::Value response;
  try {
    response = json::parse(line);
  } catch (const std::exception& e) {
    err << "client: unparseable response (" << e.what() << "): " << line
        << "\n";
    return false;
  }
  const json::Value* id = response.find("id");
  const std::string label =
      id && id->is_string() ? id->string : std::string("-");

  const json::Value* ok = response.find("ok");
  if (!ok || ok->type != json::Value::Type::Bool || !ok->boolean) {
    const json::Value* error = response.find("error");
    const json::Value* message = response.find("message");
    err << "response " << label << ": error "
        << (error && error->is_string() ? error->string : "unknown") << ": "
        << (message && message->is_string() ? message->string : "") << "\n";
    return false;
  }

  if (const json::Value* report = response.find("report")) {
    const json::Value* cache = response.find("cache");
    const json::Value* trace = response.find("trace");
    err << "response " << label << ": ok (cache "
        << (cache && cache->is_string() ? cache->string : "?");
    // Mutate responses additionally carry the suite name and version.
    const json::Value* suite = response.find("suite");
    const json::Value* version = response.find("version");
    std::uint64_t number = 0;
    if (suite && suite->is_string() && version &&
        json::get(*version, number)) {
      err << ", suite " << suite->string << " v" << number;
    }
    if (trace && trace->is_string()) err << ", trace " << trace->string;
    err << ")\n";
    if (report->is_string()) out << report->string;
    return true;
  }
  if (const json::Value* counters = response.find("counters")) {
    err << "response " << label << ": metrics\n";
    for (const auto& [name, value] : counters->members) {
      std::uint64_t count = 0;
      json::get(value, count);
      out << name << " " << count << "\n";
    }
    if (const json::Value* distributions = response.find("distributions")) {
      print_stat_object(out, *distributions);
    }
    if (const json::Value* histograms = response.find("histograms")) {
      print_stat_object(out, *histograms);
    }
    return true;
  }
  if (const json::Value* histograms = response.find("histograms")) {
    err << "response " << label << ": stats\n";
    print_stat_object(out, *histograms);
    return true;
  }
  if (const json::Value* workers = response.find("workers")) {
    // shard_stats: one "worker.N.field value" line per topology field, so
    // shell scripts can awk out a worker's pid (the serve smoke's
    // kill-the-owner phase does exactly that).
    err << "response " << label << ": shard_stats\n";
    for (const json::Value& row : workers->elements) {
      const json::Value* index = row.find("worker");
      std::uint64_t worker = 0;
      if (!index || !json::get(*index, worker)) continue;
      const auto prefix = "worker." + std::to_string(worker);
      for (const auto& [field, value] : row.members) {
        if (field == "worker") continue;
        if (value.is_number()) {
          // %.0f: an integer prints as itself (pid -1 included) with no
          // cast that a huge value could overflow.
          char buf[400];
          std::snprintf(buf, sizeof buf, "%.0f", value.number);
          out << prefix << '.' << field << ' ' << buf << '\n';
        } else if (value.type == json::Value::Type::Bool) {
          out << prefix << '.' << field << ' ' << (value.boolean ? 1 : 0)
              << '\n';
        }
      }
    }
    return true;
  }
  if (response.find("pong")) {
    err << "response " << label << ": pong\n";
    return true;
  }
  if (response.find("shutting_down")) {
    err << "response " << label << ": server shutting down\n";
    return true;
  }
  err << "response " << label << ": ok\n";
  return true;
}

/// Reads one '\n'-terminated line (newline stripped) through `buffer`,
/// blocking until the server answers. False on EOF.
bool read_one_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line.assign(buffer, 0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read");
    }
    if (n == 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One lockstep job-op exchange. Throws on transport failure, returns
/// false (with a line on `err`) on a malformed response.
bool job_exchange(int fd, std::string& rx, const JobRequest& request,
                  JobResponse& response, std::ostream& err) {
  send_all(fd, serialize_job_request(request));
  std::string line;
  if (!read_one_line(fd, rx, line)) {
    throw std::runtime_error("client: server closed the connection");
  }
  if (!parse_job_response(line, response)) {
    err << "client: malformed job response: " << line << "\n";
    return false;
  }
  return true;
}

/// "job <id> <state> client=<c> evaluated=E/T ..." — one line per job
/// for status / cancel / list output.
void print_status_line(std::ostream& out, const jobs::JobStatus& status,
                       int worker) {
  out << "job " << status.id << " " << jobs::to_string(status.state)
      << " client=" << (status.client.empty() ? "-" : status.client)
      << " evaluated=" << status.evaluated << "/" << status.total;
  if (status.best.valid) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", status.best.deviation_pct);
    out << " deviation_pct=" << buf;
  }
  if (status.resumed) out << " resumed";
  if (worker >= 0) out << " worker=" << worker;
  if (!status.error.empty()) out << " detail=" << status.error;
  out << "\n";
}

/// Terminal-state epilogue of a watch: status summary to `err`, the
/// final subset (the byte-comparable reference format) to `out`.
int print_final(const jobs::JobStatus& status, std::ostream& out,
                std::ostream& err) {
  err << "job " << status.id << ": " << jobs::to_string(status.state)
      << " (evaluated " << status.evaluated << "/" << status.total;
  if (status.resumed) err << ", resumed";
  err << ")\n";
  if (status.state == jobs::JobState::Failed) {
    err << "job " << status.id << ": " << status.error << "\n";
    return 3;
  }
  if (status.state != jobs::JobState::Done) return 3;
  if (status.best.valid) {
    out << "subset:";
    for (const std::string& name : status.best.names) out << ' ' << name;
    out << "\n";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", status.best.deviation_pct);
    out << "deviation_pct: " << buf << "\n";
  }
  return 0;
}

/// Polls job_watch until the job reaches a terminal state, streaming
/// progress records to `err`. The poll sleep uses ::poll (no clock
/// reads) so the client stays det-clock clean.
int watch_job(int fd, std::string& rx, const std::string& job_id,
              std::uint64_t interval_ms, std::ostream& out,
              std::ostream& err) {
  std::uint64_t from = 1;
  for (;;) {
    JobRequest request;
    request.id = "watch";
    request.op = JobOp::Watch;
    request.job = job_id;
    request.from = from;
    JobResponse response;
    if (!job_exchange(fd, rx, request, response, err)) return 3;
    if (!response.ok) {
      err << "watch " << job_id << ": error " << response.error << ": "
          << response.message << "\n";
      return 3;
    }
    for (const auto& record : response.progress) {
      err << "progress " << job_id << " seq=" << record.seq
          << " evaluated=" << record.evaluated << "/" << record.total;
      if (record.best.valid) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.6g", record.best.deviation_pct);
        err << " best=candidate" << record.best.candidate
            << " deviation_pct=" << buf;
      }
      err << "\n";
    }
    from = response.next;
    if (jobs::is_terminal(response.status.state)) {
      return print_final(response.status, out, err);
    }
    if (interval_ms > 0) ::poll(nullptr, 0, static_cast<int>(interval_ms));
  }
}

/// Job mode: a lockstep conversation instead of the pipelined burst.
int run_job_client(const ClientRun& run, const ClientJob& job,
                   std::ostream& out, std::ostream& err) {
  const int fd = connect_to(run.host, run.port);
  std::string rx;
  int rc = 0;
  try {
    if (job.submit) {
      JobRequest request;
      request.id = "submit";
      request.op = JobOp::Submit;
      request.spec = job.spec;
      JobResponse response;
      if (!job_exchange(fd, rx, request, response, err)) {
        rc = 3;
      } else if (!response.ok) {
        err << "submit: error " << response.error << ": " << response.message
            << "\n";
        rc = 3;
      } else {
        err << "submitted job " << response.status.id << " state "
            << jobs::to_string(response.status.state);
        if (response.duplicate) err << " (duplicate)";
        if (response.worker >= 0) err << " worker=" << response.worker;
        err << "\n";
        out << "job: " << response.status.id << "\n";
        if (job.follow) {
          rc = watch_job(fd, rx, response.status.id, job.watch_interval_ms,
                         out, err);
        }
      }
    } else if (!job.watch.empty()) {
      rc = watch_job(fd, rx, job.watch, job.watch_interval_ms, out, err);
    } else if (!job.status.empty() || !job.cancel.empty() || job.list) {
      JobRequest request;
      request.op = !job.status.empty()   ? JobOp::Status
                   : !job.cancel.empty() ? JobOp::Cancel
                                         : JobOp::List;
      request.id = request.op == JobOp::Status   ? "status"
                   : request.op == JobOp::Cancel ? "cancel"
                                                 : "list";
      request.job = request.op == JobOp::Status ? job.status : job.cancel;
      JobResponse response;
      if (!job_exchange(fd, rx, request, response, err) || !response.ok) {
        if (!response.error.empty()) {
          err << request.id << (request.job.empty() ? "" : " ") << request.job
              << ": error " << response.error << ": " << response.message
              << "\n";
        }
        rc = 3;
      } else if (request.op == JobOp::List) {
        for (const auto& status : response.jobs) {
          print_status_line(out, status, -1);
        }
        err << "listed " << response.jobs.size() << " jobs\n";
      } else {
        if (request.op == JobOp::Cancel) {
          err << "cancel requested for job " << response.status.id << "\n";
        }
        print_status_line(out, response.status, response.worker);
      }
    } else {
      err << "client: job mode needs one of submit/watch/status/cancel/list\n";
      rc = 3;
    }
    if (run.shutdown) {
      send_all(fd, "{\"id\":\"shutdown\",\"op\":\"shutdown\"}\n");
      std::string line;
      read_one_line(fd, rx, line);
    }
    ::close(fd);
    return rc;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace

int run_client(const ClientRun& run, std::ostream& out, std::ostream& err) {
  if (run.job) return run_job_client(run, *run.job, out, err);
  std::string request_bytes;
  std::size_t expected = 0;
  if (run.ping) {
    request_bytes += "{\"id\":\"ping\",\"op\":\"ping\"}\n";
    ++expected;
  }
  for (std::size_t i = 0; i < run.mutations.size(); ++i) {
    MutateRequest mutate = run.mutations[i];
    mutate.id = std::string("m").append(std::to_string(i));
    request_bytes += serialize_mutate_request(mutate);
    ++expected;
  }
  if (run.score) {
    ScoreRequest score = *run.score;
    for (std::uint64_t i = 0; i < run.repeat; ++i) {
      score.id = std::to_string(i);
      request_bytes += serialize_score_request(score);
      ++expected;
    }
  }
  if (run.metrics) {
    request_bytes += "{\"id\":\"metrics\",\"op\":\"metrics\"}\n";
    ++expected;
  }
  if (run.stats) {
    request_bytes += "{\"id\":\"stats\",\"op\":\"stats\"}\n";
    ++expected;
  }
  if (run.shard_stats) {
    request_bytes += "{\"id\":\"shard\",\"op\":\"shard_stats\"}\n";
    ++expected;
  }
  if (run.shutdown) {
    request_bytes += "{\"id\":\"shutdown\",\"op\":\"shutdown\"}\n";
    ++expected;
  }

  const int fd = connect_to(run.host, run.port);
  try {
    send_all(fd, request_bytes);
    // Half-close: the server sees EOF after the pipelined burst and
    // drains, so read_to_eof terminates without a shutdown request.
    ::shutdown(fd, SHUT_WR);
    const std::string response_bytes = read_to_eof(fd);
    ::close(fd);

    std::size_t received = 0;
    bool all_ok = true;
    std::size_t start = 0;
    while (start < response_bytes.size()) {
      std::size_t end = response_bytes.find('\n', start);
      if (end == std::string::npos) end = response_bytes.size();
      if (end > start) {
        ++received;
        all_ok &= report_response(response_bytes.substr(start, end - start),
                                  out, err);
      }
      start = end + 1;
    }
    if (received != expected) {
      err << "client: expected " << expected << " responses, got " << received
          << "\n";
      return 3;
    }
    return all_ok ? 0 : 3;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace perspector::serve
