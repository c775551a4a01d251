// serve_mix: an open loop at a fixed rate over one loopback NDJSON
// connection to serve::run_tcp_server fronting serve::Router with two
// forked workers. About 60% warm reads (built-in requests primed in
// set-up, router-cache hits), 25% cold reads (seed-generated inline CSV
// suites with series, each a distinct content key) and 15% writes
// (add_workload / drop_workload / append_samples on a live suite loaded
// in set-up). No simulation runs inside the timed window.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/io.hpp"
#include "core/scoring_workspace.hpp"
#include "generate.hpp"
#include "replay.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace core = perspector::core;
namespace serve = perspector::serve;
namespace json = perspector::serve::json;

namespace {

// The fixed arrival rate of the latency phase and the latency limit of
// the SLO and of the max-rate ladder. The rate is about a third of the
// rate the ladder finds on a 4-core host, so a regression has headroom
// to show as latency before requests start to queue without bound.
constexpr double kFixedRate = 10.0;      // requests per second
constexpr double kLimitMs = 400.0;       // latency limit, from due time
constexpr double kLadderStep = 1.04;     // rungs 4% apart
constexpr int kLadderLow = 0;            // rung bounds, relative to kFixedRate
constexpr int kLadderHigh = 48;
constexpr int kLadderTrials = 6;
constexpr double kTrialSeconds = 2.0;
// Sizes the capacity phase only (its request count is fixed per window
// length, never measured), near the sequential rate of a 4-core host.
constexpr double kCapacitySizingRate = 50.0;
constexpr std::size_t kWorkers = 2;
constexpr int kRounds = 6;
constexpr std::size_t kColdPerRound = 5;
// A cycle of the mix walks the round's cold payloads once: the pattern
// sends one cold read in every four requests.
constexpr std::size_t kCycle = 4 * kColdPerRound;
constexpr std::size_t kLiveWorkloads = 24;
constexpr std::size_t kCheckedColdReads = 3;

enum class Kind { Warm, Cold, Add, Drop, Append };

bool is_read(Kind kind) { return kind == Kind::Warm || kind == Kind::Cold; }

struct ColdPayload {
  std::string name;
  std::string csv;
  std::string series;
  std::string events;
  std::string quoted;  // ,"csv":...,"series_csv":... ready to splice
};

// ---- transport -------------------------------------------------------------

void write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve_mix: send failed");
    sent += static_cast<std::size_t>(n);
  }
}

/// Buffered line reader over a socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// Next line without its newline; nullopt on EOF or after `timeout_ms`.
  std::optional<std::string> next(int timeout_ms = 60000) {
    for (;;) {
      const auto nl = buffer_.find('\n', scan_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scan_ = 0;
        return line;
      }
      scan_ = buffer_.size();
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scan_ = 0;
};

/// The server child process and our one connection to it.
class Server {
 public:
  explicit Server(const Options& options) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("serve_mix: pipe failed");
    std::vector<std::string> args = {"perfbench_runner", "--serve-child",
                                     "--stall-ms", std::to_string(options.stall_ms),
                                     "--stall-at", std::to_string(options.stall_at)};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("serve_mix: fork failed");
    if (pid_ == 0) {
      // The server (and, through the router's own PDEATHSIG, its workers)
      // must not outlive the runner, however the runner ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], 1);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    // "serve: listening on 127.0.0.1:<port>"
    std::string banner;
    char c = 0;
    while (::read(out[0], &c, 1) == 1 && c != '\n') banner += c;
    ::close(out[0]);
    const auto colon = banner.rfind(':');
    if (banner.find("listening") == std::string::npos || colon == std::string::npos) {
      stop();
      throw std::runtime_error("serve_mix: server did not start: " + banner);
    }
    const int port = std::stoi(banner.substr(colon + 1));
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      stop();
      throw std::runtime_error("serve_mix: connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    reader_ = std::make_unique<LineReader>(fd_);
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int fd() const { return fd_; }
  LineReader& reader() { return *reader_; }

  /// One synchronous request/response exchange.
  json::Value call(const std::string& line) {
    write_all(fd_, line);
    const auto response = reader_->next();
    if (!response) throw std::runtime_error("serve_mix: no response");
    return json::parse(*response);
  }

  /// Graceful shutdown, then reap the child (which reaps its workers).
  void stop() {
    if (fd_ >= 0) {
      try {
        write_all(fd_, "{\"op\":\"shutdown\"}\n");
        reader_->next(10000);
      } catch (const std::exception&) {
      }
      ::close(fd_);
      fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      for (int i = 0; i < 100; ++i) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::unique_ptr<LineReader> reader_;
};

// ---- request plan ----------------------------------------------------------

struct Planned {
  Kind kind = Kind::Warm;
  std::string id;
  std::string head;  // line up to the splice point
  const ColdPayload* payload = nullptr;
  std::string tail;
  // What the replay needs.
  std::string name;
  std::string events;
  std::string workload;  // add/drop/append
};

struct WarmKey {
  std::string suite;
  std::uint64_t instructions;
  std::string events;
  std::string line() const {
    return "\"op\":\"score\",\"suite\":\"" + suite +
           "\",\"instructions\":" + std::to_string(instructions) +
           ",\"events\":\"" + events + "\"";
  }
};

/// Generates request after request from the seed; writes continue one
/// add -> drop -> append cycle on the live suite across phases.
class Planner {
 public:
  Planner(std::uint64_t seed, const std::vector<WarmKey>& warm,
          const std::vector<ColdPayload>& cold, const core::CounterMatrix& live,
          double scale)
      : rng_(Rng(seed).fork(3)), warm_(warm), cold_(cold), scale_(scale) {
    for (std::size_t w = 0; w < live.num_workloads(); ++w) {
      lengths_[live.workload_names()[w]] = live.series(w, 0).size();
    }
    counters_ = live.counter_names();
  }

  Planned next() {
    // The traffic shape is fixed: kinds repeat a 20-request pattern with
    // exact shares (12 warm, 5 cold, 3 writes) spread evenly, and cold
    // reads walk the pool in order. Seeds change the data, never the
    // amount or the order of the work, so queueing is alike on every seed.
    static constexpr std::string_view kPattern = "WCWRWCWWWCRWWCWWRCWW";
    const char slot = kPattern[issued_ % kPattern.size()];
    Planned p;
    p.id = std::to_string(++issued_);
    const std::string id_field = "{\"id\":\"" + p.id + "\",";
    if (slot == 'W') {
      p.kind = Kind::Warm;
      const WarmKey& key = warm_[rng_.between(0, warm_.size() - 1)];
      p.head = id_field + key.line() + "}\n";
      return p;
    }
    if (slot == 'C') {
      p.kind = Kind::Cold;
      p.payload = &cold_[colds_ % cold_.size()];
      p.name = "cold" + p.id;
      p.events = p.payload->events;
      ++colds_;
      p.head = id_field + "\"op\":\"score\",\"name\":\"" + p.name + "\"";
      p.tail = ",\"events\":\"" + p.events + "\"}\n";
      return p;
    }
    const std::uint64_t step = writes_++ % 3;
    if (step == 0) {
      p.kind = Kind::Add;
      Rng local = rng_.fork(writes_);
      const auto samples = static_cast<std::size_t>(std::max(8.0, 100.0 * scale_));
      const core::CounterMatrix extra = synthetic_suite(
          local, "live", 1, samples, "x" + std::to_string(writes_) + "_");
      p.workload = extra.workload_names()[0];
      last_added_ = p.workload;
      p.head = id_field + "\"op\":\"add_workload\",\"suite\":\"live\",\"csv\":" +
               json::quoted(core::write_aggregates_csv_text(extra)) + ",\"series_csv\":" +
               json::quoted(core::write_series_csv_text(extra)) + "}\n";
    } else if (step == 1) {
      p.kind = Kind::Drop;
      p.workload = last_added_;
      p.head = id_field + "\"op\":\"drop_workload\",\"suite\":\"live\",\"workload\":\"" +
               p.workload + "\"}\n";
    } else {
      p.kind = Kind::Append;
      auto it = lengths_.begin();
      std::advance(it, static_cast<long>(rng_.between(0, lengths_.size() - 1)));
      p.workload = it->first;
      std::string series = "workload,counter,sample,value\n";
      for (const auto& counter : counters_) {
        for (std::size_t s = 0; s < 2; ++s) {
          series += p.workload + "," + counter + "," +
                    std::to_string(it->second + s) + "," +
                    std::to_string(static_cast<long long>(rng_.between(100, 100000))) +
                    "\n";
        }
      }
      it->second += 2;
      p.head = id_field + "\"op\":\"append_samples\",\"suite\":\"live\",\"series_csv\":" +
               json::quoted(series) + "}\n";
    }
    return p;
  }

 private:
  Rng rng_;
  const std::vector<WarmKey>& warm_;
  const std::vector<ColdPayload>& cold_;
  double scale_;
  std::uint64_t issued_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t colds_ = 0;
  std::string last_added_;
  std::map<std::string, std::size_t> lengths_;
  std::vector<std::string> counters_;
};

// ---- the open loop ---------------------------------------------------------

struct Outcome {
  bool ok = false;
  double latency_s = 0.0;  // receipt - due
  double lag_s = 0.0;      // send start - due
  std::string report;
  // Written by the sending and the receiving thread respectively.
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

/// Fills `o` from one response line: ok only when the response is ok and
/// answers request `id` (responses come back in request order).
void read_response(const std::string& line, const std::string& id, Outcome& o) {
  o.response_bytes = line.size() + 1;
  try {
    const json::Value response = json::parse(line);
    const json::Value* echoed = response.find("id");
    const json::Value* ok = response.find("ok");
    o.ok = echoed && echoed->is_string() && echoed->string == id && ok && ok->boolean;
    if (const json::Value* report = response.find("report")) o.report = report->string;
  } catch (const std::exception&) {
    o.ok = false;
  }
}

/// Sends `plan` at `rate` per second from one thread while this thread
/// reads the in-order responses; every latency counts from the request's
/// due time, so a stall charges its wait to every request queued behind it.
std::vector<Outcome> open_loop(Server& server, const std::vector<Planned>& plan,
                               double rate) {
  std::vector<Outcome> out(plan.size());
  std::vector<Clock::time_point> due(plan.size());
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    due[i] = start + std::chrono::nanoseconds(
                         static_cast<long long>(1e9 * static_cast<double>(i) / rate));
  }
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    std::string line;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      std::this_thread::sleep_until(due[i]);
      out[i].lag_s = seconds_between(due[i], Clock::now());
      line = plan[i].head;
      if (plan[i].payload) line += plan[i].payload->quoted + plan[i].tail;
      out[i].request_bytes = line.size();
      try {
        write_all(server.fd(), line);
      } catch (const std::exception&) {
        send_failed = true;
        return;
      }
    }
  });
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto line = server.reader().next(30000);
    if (!line) break;
    out[i].latency_s = seconds_between(due[i], Clock::now());
    read_response(*line, plan[i].id, out[i]);
  }
  sender.join();
  if (send_failed) {
    for (auto& o : out) {
      if (o.latency_s == 0.0) o.ok = false;
    }
  }
  return out;
}

/// Capacity: sends `n` requests of the mix one after another, each as
/// soon as the previous one is answered; returns the seconds they took.
double closed_loop(Server& server, Planner& planner, std::size_t n,
                   std::vector<Planned>& plan, std::vector<Outcome>& out) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    plan.push_back(planner.next());
    const Planned& p = plan.back();
    std::string line = p.head;
    if (p.payload) line += p.payload->quoted + p.tail;
    Outcome o;
    o.request_bytes = line.size();
    const auto sent = Clock::now();
    write_all(server.fd(), line);
    const auto response_line = server.reader().next(30000);
    if (response_line) {
      o.latency_s = seconds_between(sent, Clock::now());
      read_response(*response_line, p.id, o);
    }
    out.push_back(std::move(o));
    if (!response_line) break;
  }
  return seconds_between(start, Clock::now());
}

/// Tracks the live suite's report through the write sequence: a drop
/// must return the report from before its add, byte for byte.
class WriteChecker {
 public:
  explicit WriteChecker(std::string loaded) : current_(std::move(loaded)) {}
  void observe(const Planned& p, const Outcome& o, Result& result) {
    if (!o.ok) return;
    if (p.kind == Kind::Add) before_add_ = current_;
    if (p.kind == Kind::Drop && o.report != before_add_) {
      result.fail("serve_mix: add->drop did not return the original report");
    }
    if (p.kind == Kind::Add || p.kind == Kind::Drop || p.kind == Kind::Append) {
      current_ = o.report;
    }
  }

 private:
  std::string current_;
  std::string before_add_;
};

/// Checks one phase's outcomes; returns false when any request failed.
bool check_phase(const std::vector<Planned>& plan, const std::vector<Outcome>& out,
                 WriteChecker& writes, Result& result) {
  bool all_ok = true;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    result.attempt();
    if (!out[i].ok) {
      result.failed_op("serve_mix request " + plan[i].id +
                       " failed or came back out of order");
      all_ok = false;
      continue;
    }
    if (!report_scores_finite(out[i].report)) {
      result.fail("serve_mix request " + plan[i].id + ": report lacks 4 finite scores");
    }
    writes.observe(plan[i], out[i], result);
  }
  return all_ok;
}

std::vector<double> latencies_ms(const std::vector<Outcome>& out) {
  std::vector<double> v;
  for (const auto& o : out) v.push_back(o.latency_s * 1e3);
  return v;
}

std::map<std::string, double> read_counters(const json::Value& metrics) {
  std::map<std::string, double> out;
  if (const json::Value* counters = metrics.find("counters")) {
    for (const auto& [name, value] : counters->members) out[name] = value.number;
  }
  if (const json::Value* histograms = metrics.find("histograms")) {
    for (const auto& [name, value] : histograms->members) {
      const json::Value* count = value.find("count");
      const json::Value* mean = value.find("mean");
      if (count && mean) out[name + ".sum"] = count->number * mean->number;
    }
  }
  return out;
}

std::vector<double> forwarded_per_worker(const json::Value& shard_stats) {
  std::vector<double> out;
  if (const json::Value* workers = shard_stats.find("workers")) {
    for (const auto& w : workers->elements) {
      const json::Value* f = w.find("forwarded");
      out.push_back(f ? f->number : 0.0);
    }
  }
  return out;
}

/// Everything set-up builds; the last set-up's instance is kept.
struct Setup {
  std::vector<WarmKey> warm;
  std::vector<ColdPayload> cold;
  std::optional<core::CounterMatrix> live;
  std::string live_report;
  std::unique_ptr<Server> server;
};

/// Set-up of round `round`: inputs, a fresh server, primed warm keys and
/// the loaded live suite. Each round gets its own slice of the cold pool.
void build_setup(const Options& options, int round, Setup& s, Result& result) {
  // Warm keys: each paper suite at two budgets, each drawn within +-4% of
  // 5k and 10k instructions. Event groups go by position, not by seed, so
  // priming costs the same on every seed.
  Rng rng = Rng(options.seed).fork(1);
  s.warm.clear();
  for (const auto& suite : paper_suites()) {
    for (const std::uint64_t budget : {5000, 10000}) {
      const std::uint64_t band = budget / 25;
      s.warm.push_back({suite, budget - band + rng.between(0, 2 * band),
                        event_groups()[s.warm.size() % event_groups().size()]});
    }
  }
  s.cold.clear();
  const auto max_workloads =
      static_cast<std::size_t>(std::max(8.0, 40.0 * options.scale));
  const std::size_t pool = kColdPerRound * kRounds;
  for (std::size_t i = 0; i < kColdPerRound; ++i) {
    // Entry k of the run's pool has 8 + 32k/(pool-1) workloads, 90..110
    // samples and event group k mod 4; the seed draws the values. Costs
    // are thus spread densely over the whole range, alike on every seed,
    // and round r takes every kRounds-th entry, so rounds are alike too.
    const std::size_t k = i * kRounds + static_cast<std::size_t>(round);
    Rng values = Rng(options.seed).fork(100 + k);
    ColdPayload payload;
    payload.name = "pool" + std::to_string(k);
    payload.events = event_groups()[k % event_groups().size()];
    const std::size_t workloads = 8 + (max_workloads - 8) * k / (pool - 1);
    const std::size_t samples = 90 + (k * 7) % 21;
    const core::CounterMatrix suite = synthetic_suite(
        values, payload.name, workloads,
        static_cast<std::size_t>(
            std::max(8.0, static_cast<double>(samples) * options.scale)));
    payload.csv = core::write_aggregates_csv_text(suite);
    payload.series = core::write_series_csv_text(suite);
    payload.quoted = ",\"csv\":" + json::quoted(payload.csv) +
                     ",\"series_csv\":" + json::quoted(payload.series);
    s.cold.push_back(std::move(payload));
  }
  Rng live = Rng(options.seed).fork(2);
  s.live.emplace(synthetic_suite(
      live, "live", kLiveWorkloads,
      static_cast<std::size_t>(std::max(8.0, 100.0 * options.scale))));

  s.server.reset();
  s.server = std::make_unique<Server>(options);
  for (std::size_t i = 0; i < s.warm.size(); ++i) {
    const json::Value r = s.server->call("{\"id\":\"warm" + std::to_string(i) +
                                         "\"," + s.warm[i].line() + "}\n");
    const json::Value* ok = r.find("ok");
    if (!ok || !ok->boolean) result.fail("serve_mix: priming a warm key failed");
  }
  const json::Value loaded = s.server->call(
      "{\"id\":\"load\",\"op\":\"load_suite\",\"suite\":\"live\",\"csv\":" +
      json::quoted(core::write_aggregates_csv_text(*s.live)) + ",\"series_csv\":" +
      json::quoted(core::write_series_csv_text(*s.live)) + "}\n");
  const json::Value* ok = loaded.find("ok");
  const json::Value* report = loaded.find("report");
  if (!ok || !ok->boolean || !report) {
    result.fail("serve_mix: load_suite failed");
    return;
  }
  s.live_report = report->string;
}

std::vector<Planned> plan_phase(Planner& planner, std::size_t n) {
  std::vector<Planned> plan;
  plan.reserve(n);
  for (std::size_t i = 0; i < n; ++i) plan.push_back(planner.next());
  return plan;
}

/// Replays the fixed phase in-process through the layer functions, with
/// spans when `spans` is enabled. Every replayed report must equal the
/// server's. Returns the replay's wall seconds.
double replay_phase(const Setup& s, const std::vector<Planned>& plan,
                    const std::vector<Outcome>& out, SpanLog& spans,
                    double& parsed_bytes, Result& result) {
  SpanLog untraced;
  core::CounterMatrix live = *s.live;
  core::ScoringWorkspace live_ws;
  replay_score(untraced, live, "all", live_ws);  // the load's prime
  std::string before_add;
  std::string current = s.live_report;
  parsed_bytes = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    spans.set_request(i + 1);
    SpanLog::Scope op(spans, "op");
    std::string line = p.head;
    if (p.payload) line += p.payload->quoted + p.tail;
    serve::ParsedRequest parsed;
    {
      SpanLog::Scope span(spans, "serve.protocol.parse");
      parsed = serve::parse_request_line(line);
    }
    std::string report;
    if (p.kind == Kind::Warm || p.kind == Kind::Cold) {
      {
        SpanLog::Scope span(spans, "serve.content_key");
        parsed.score.content_key = serve::compute_content_key(parsed.score, nullptr);
      }
      if (p.kind == Kind::Warm) {
        report = out[i].report;  // a router-cache hit: no scoring runs
      } else {
        std::optional<core::CounterMatrix> data;
        {
          SpanLog::Scope span(spans, "core.io.parse");
          data.emplace(core::read_with_series_csv_text(
              parsed.score.csv_name, parsed.score.csv_text, parsed.score.series_text));
        }
        parsed_bytes += static_cast<double>(parsed.score.csv_text.size() +
                                            parsed.score.series_text.size());
        report = replay_score(spans, *data, p.events);
      }
    } else if (p.kind == Kind::Drop) {
      {
        SpanLog::Scope span(spans, "core.score");
        std::vector<std::size_t> keep;
        for (std::size_t w = 0; w < live.num_workloads(); ++w) {
          if (live.workload_names()[w] != p.workload) keep.push_back(w);
        }
        live = live.select_workloads(keep);
      }
      {
        SpanLog::Scope span(spans, "dtw");
        live_ws.remove_row(p.workload);
      }
      report = before_add;  // content equals the pre-add content: a cache hit
    } else {
      std::vector<std::size_t> upserts;
      {
        SpanLog::Scope span(spans, "core.io.parse");
        if (p.kind == Kind::Add) {
          const std::size_t before = live.num_workloads();
          live = core::append_workloads_csv_text(live, parsed.mutate.csv_text,
                                                 parsed.mutate.series_text);
          for (std::size_t w = before; w < live.num_workloads(); ++w) upserts.push_back(w);
        } else {
          live = core::append_samples_csv_text(live, parsed.mutate.series_text, &upserts);
        }
      }
      parsed_bytes += static_cast<double>(parsed.mutate.csv_text.size() +
                                          parsed.mutate.series_text.size());
      {
        SpanLog::Scope span(spans, "dtw");
        for (const std::size_t row : upserts) {
          live_ws.upsert_row(live, row, core::TrendScoreOptions{});
        }
      }
      report = replay_score(spans, live, "all", live_ws);
      if (p.kind == Kind::Add) before_add = current;
    }
    if (p.kind == Kind::Add || p.kind == Kind::Drop || p.kind == Kind::Append) {
      current = report;
    }
    if (out[i].ok && report != out[i].report) {
      result.fail("serve_mix request " + p.id +
                  ": replayed report differs from the server's");
    }
    serve::ScoreResponse response;
    response.id = p.id;
    response.ok = true;
    response.report = report;
    SpanLog::Scope span(spans, "serve.protocol.serialize");
    const std::string serialized = serve::serialize_response(response);
    if (serialized.empty()) result.fail("serve_mix: empty serialization");
  }
  return seconds_between(t0, Clock::now());
}

/// One ladder rung: rate kFixedRate * kLadderStep^rung.
double rung_rate(int rung) { return kFixedRate * std::pow(kLadderStep, rung); }

/// The max-rate ladder: tries the lowest rung, then bisects the fixed
/// rungs 4% apart above it, each trial an open loop of kTrialSeconds;
/// returns the highest passing rate, or 0 when even the lowest fails.
double ladder(Server& server, Planner& planner, WriteChecker& writes, double scale,
              Result& result) {
  auto passes = [&](int rung) {
    const double rate = rung_rate(rung);
    const auto n = static_cast<std::size_t>(
        std::max(10.0, std::round(rate * kTrialSeconds * std::min(1.0, scale * 10))));
    const std::vector<Planned> rung_plan = plan_phase(planner, n);
    const std::vector<Outcome> rung_out = open_loop(server, rung_plan, rate);
    const bool ok = check_phase(rung_plan, rung_out, writes, result);
    const std::vector<double> lat = latencies_ms(rung_out);
    // Pass: every request ok, the 90th percentile under the limit, and no
    // backlog left growing at the end (the last request is under it too).
    return ok && percentile(lat, 0.9) <= kLimitMs &&
           rung_out.back().latency_s * 1e3 <= kLimitMs;
  };
  if (!passes(kLadderLow)) return 0.0;
  int lo = kLadderLow;       // passed
  int hi = kLadderHigh + 1;  // assumed to fail
  for (int trial = 0; trial < kLadderTrials && hi - lo > 1; ++trial) {
    const int mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  return rung_rate(lo);
}

}  // namespace

// ---- server child ----------------------------------------------------------

namespace {

/// Self-test seam: delays the request whose id is `stall_id` (as the
/// serving loop would on a slow backend) and forwards everything else.
class StallBackend : public serve::ScoreBackend {
 public:
  StallBackend(serve::ScoreBackend& inner, std::uint64_t stall_ms, std::string stall_id)
      : inner_(inner), stall_ms_(stall_ms), stall_id_(std::move(stall_id)) {}
  serve::ScoreResponse score(const serve::ScoreRequest& r) override {
    maybe_stall(r.id);
    return inner_.score(r);
  }
  std::vector<serve::ScoreResponse> score_batch(
      const std::vector<serve::ScoreRequest>& rs) override {
    for (const auto& r : rs) maybe_stall(r.id);
    return inner_.score_batch(rs);
  }
  serve::MutateResponse mutate(const serve::MutateRequest& r) override {
    maybe_stall(r.id);
    return inner_.mutate(r);
  }
  serve::Key128 content_key(const serve::ScoreRequest& r) override {
    return inner_.content_key(r);
  }
  std::string metrics_line(const std::string& id) override { return inner_.metrics_line(id); }
  std::string stats_line(const std::string& id) override { return inner_.stats_line(id); }
  std::string shard_stats_line(const std::string& id) override {
    return inner_.shard_stats_line(id);
  }

 private:
  void maybe_stall(const std::string& id) {
    if (stall_ms_ > 0 && id == stall_id_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
  }
  serve::ScoreBackend& inner_;
  std::uint64_t stall_ms_;
  std::string stall_id_;
};

}  // namespace

void serve_child(const Options& options) {
  // The parent stops reading our stdout after the banner.
  ::signal(SIGPIPE, SIG_IGN);
  int code = 0;
  try {
    serve::RouterOptions router_options;
    router_options.workers = kWorkers;
    serve::Router router(router_options);
    StallBackend backend(router, options.stall_ms, std::to_string(options.stall_at));
    serve::ServerOptions server;
    serve::run_tcp_server(backend, server);
  } catch (const std::exception& e) {
    std::cerr << "perfbench serve child: " << e.what() << "\n";
    code = 2;
  }
  std::cout.flush();
  std::exit(code);
}

// ---- the workload ----------------------------------------------------------

int run_serve_mix(const Options& options, Result& result) {
  ::signal(SIGPIPE, SIG_IGN);
  // kRounds rounds, each on a freshly set-up server with its own share of
  // the cold pool: set-up is timed kRounds times (setup_s is the median),
  // and every figure pools kRounds server processes, whose speeds differ
  // with where the host places them. Each round sends whole cycles of the
  // mix at the fixed rate (about 60% of the window), then whole cycles one
  // request after another for capacity, sized to fill the rest of the
  // window at kCapacitySizingRate: a fixed amount of work, timed.
  const double fixed_rate = kFixedRate;
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(fixed_rate * options.seconds * 0.6 /
                                             static_cast<double>(kCycle) / kRounds)));
  const std::size_t n_fixed = kCycle * cycles;
  const double capacity_window_s =
      std::max(0.0, options.seconds - kRounds * static_cast<double>(n_fixed) / fixed_rate);
  const std::size_t n_capacity =
      kCycle * std::max<std::size_t>(
                   1, static_cast<std::size_t>(std::round(
                          capacity_window_s * kCapacitySizingRate /
                          static_cast<double>(kCycle) / kRounds)));

  Setup s;
  std::vector<double> setup_times;
  std::vector<Planned> plan;                 // the last round's fixed sequence
  std::vector<std::vector<Outcome>> fixed;   // per round
  std::map<std::string, double> counters;    // server registry, summed deltas
  std::vector<double> forwarded;             // per worker, summed deltas
  std::size_t capacity_done = 0;
  double capacity_s = 0.0;                   // capacity phase, all rounds
  double client_rss_mb = 0.0;
  double max_rps = 0.0;
  std::vector<double> rtts;
  try {
    for (int round = 0; round < kRounds; ++round) {
      const auto t0 = Clock::now();
      build_setup(options, round, s, result);
      setup_times.push_back(seconds_between(t0, Clock::now()));
      if (!result.correct()) return result.print();

      Planner planner(options.seed, s.warm, s.cold, *s.live, options.scale);
      WriteChecker writes(s.live_report);
      plan = plan_phase(planner, n_fixed);
      const json::Value metrics_before = s.server->call("{\"op\":\"metrics\"}\n");
      const json::Value shards_before = s.server->call("{\"op\":\"shard_stats\"}\n");
      fixed.push_back(open_loop(*s.server, plan, fixed_rate));
      const json::Value metrics_after = s.server->call("{\"op\":\"metrics\"}\n");
      const json::Value shards_after = s.server->call("{\"op\":\"shard_stats\"}\n");
      check_phase(plan, fixed.back(), writes, result);
      const auto before = read_counters(metrics_before);
      for (const auto& [name, value] : read_counters(metrics_after)) {
        counters[name] += value - (before.count(name) ? before.at(name) : 0.0);
      }
      const auto fwd_before = forwarded_per_worker(shards_before);
      const auto fwd_after = forwarded_per_worker(shards_after);
      forwarded.resize(fwd_after.size());
      for (std::size_t w = 0; w < fwd_after.size() && w < fwd_before.size(); ++w) {
        forwarded[w] += fwd_after[w] - fwd_before[w];
      }

      std::vector<Planned> capacity_plan;
      std::vector<Outcome> capacity_out;
      capacity_s += closed_loop(*s.server, planner, n_capacity, capacity_plan, capacity_out);
      capacity_done += capacity_out.size();
      client_rss_mb = std::max(client_rss_mb, peak_rss_mb());
      check_phase(capacity_plan, capacity_out, writes, result);

      if (options.trace && round == kRounds - 1) {
        max_rps = ladder(*s.server, planner, writes, options.scale, result);
        for (int i = 0; i < 200; ++i) {
          const auto p0 = Clock::now();
          s.server->call("{\"op\":\"ping\"}\n");
          rtts.push_back(seconds_between(p0, Clock::now()) * 1e6);
        }
      }
      s.server->stop();
    }
  } catch (const std::exception& e) {
    result.fail(e.what());
    return result.print();
  }

  std::vector<double> all;
  std::vector<double> reads;
  std::vector<double> write_lat;
  std::vector<double> cold_lat;
  std::vector<double> lags;
  std::size_t within = 0;
  for (const auto& out : fixed) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double ms = out[i].latency_s * 1e3;
      all.push_back(ms);
      (is_read(plan[i].kind) ? reads : write_lat).push_back(ms);
      if (plan[i].kind == Kind::Cold) cold_lat.push_back(ms);
      if (out[i].ok && ms <= kLimitMs) ++within;
      lags.push_back(out[i].lag_s * 1e3);
    }
  }
  const double read_q = supported_quantile(reads.size(), 0.99);
  const double write_q = supported_quantile(write_lat.size(), 0.95);

  // Output digest over every round's fixed-sequence reports (a pure
  // function of the seed), plus a seeded sample of the last round's cold
  // reads re-computed untimed through core::Perspector + core::suite_report.
  const std::vector<Outcome>& out = fixed.back();
  std::uint64_t digest = fnv1a("serve_mix");
  for (const auto& round_out : fixed) {
    for (const auto& o : round_out) digest = fnv1a(o.report, digest);
  }
  std::vector<std::size_t> cold_indices;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind == Kind::Cold && out[i].ok) cold_indices.push_back(i);
  }
  result.note("digest " + hex64(digest));
  Rng pick = Rng(options.seed).fork(5);
  for (std::size_t k = 0; k < kCheckedColdReads && !cold_indices.empty(); ++k) {
    const std::size_t i = cold_indices[pick.between(0, cold_indices.size() - 1)];
    const core::CounterMatrix data = core::read_with_series_csv_text(
        plan[i].name, plan[i].payload->csv, plan[i].payload->series);
    if (reference_report(data, plan[i].events) != out[i].report) {
      result.fail("serve_mix cold read " + plan[i].id +
                  " differs from the one-shot recompute");
    }
  }

  result.note("samples serve fixed=" + std::to_string(all.size()) +
              " reads=" + std::to_string(reads.size()) + " cold=" +
              std::to_string(cold_lat.size()) + " writes=" +
              std::to_string(write_lat.size()) + " read_q=" + std::to_string(read_q) +
              " write_q=" + std::to_string(write_q) +
              " capacity=" + std::to_string(capacity_done) +
              " cold_ms_q1/q2/q3=" + std::to_string(percentile(cold_lat, 0.25)) + "/" +
              std::to_string(median(cold_lat)) + "/" +
              std::to_string(percentile(cold_lat, 0.75)));
  result.note("detail serve max_latency_ms=" +
              std::to_string(*std::max_element(all.begin(), all.end())) +
              " over_half_stall=" +
              std::to_string(std::count_if(out.begin(), out.end(), [&](const Outcome& o) {
                return o.latency_s * 1e3 >= 0.5 * static_cast<double>(options.stall_ms);
              })) +
              " gen_lag_max_ms=" + std::to_string(*std::max_element(lags.begin(), lags.end())));

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = median(setup_times);
    // The client's peak at the window's end, or a server's (all reaped).
    e2e.peak_rss_mb = std::max(client_rss_mb, peak_rss_mb());
    // The mean, not the median: cold reads are graded in cost over a 20x
    // range, so the median of the sample is the latency of one request
    // type, while the mean weighs every cold read.
    e2e.latency_ms = std::accumulate(cold_lat.begin(), cold_lat.end(), 0.0) /
                     static_cast<double>(cold_lat.size());
    // Requests per second over the capacity phases of all rounds, pooled:
    // a per-cycle median would jump between fast and slow rounds.
    e2e.throughput = static_cast<double>(capacity_done) / capacity_s;
    emit_end_to_end(result, e2e);
    return result.print();
  }

  // Traced run: the last round's fixed sequence replayed in-process
  // through the layer functions: once to warm up, then untraced and
  // traced passes alternately; the spans kept are the last traced pass's.
  SpanLog spans;
  double parsed_bytes = 0.0;
  replay_phase(s, plan, out, spans, parsed_bytes, result);
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  for (int pass = 0; pass < 3; ++pass) {
    spans.enable(false);
    untraced_walls.push_back(replay_phase(s, plan, out, spans, parsed_bytes, result));
    spans.clear();
    spans.enable(true);
    traced_walls.push_back(replay_phase(s, plan, out, spans, parsed_bytes, result));
  }
  const double untraced_wall = median(untraced_walls);
  const double traced_wall = traced_walls.back();
  spans.write(options.work_dir + "/spans_serve_mix.jsonl");

  std::map<std::string, double> layers;
  layers["serve_p50_ms"] = median(all);
  layers["serve_read_p99_ms"] = percentile(reads, read_q);
  layers["serve_write_p95_ms"] = percentile(write_lat, write_q);
  layers["serve_slo_frac"] = static_cast<double>(within) / static_cast<double>(all.size());
  layers["serve_max_rps"] = max_rps;
  layers["failed_frac"] = static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted());
  layers["op.samples"] = static_cast<double>(all.size());
  add_layer_times(layers, spans, traced_wall);
  layers["core.io.parse_mbps"] =
      parsed_bytes / 1e6 / std::max(layers["core.io.parse_busy_s"], 1e-9);
  layers["obs.trace_overhead"] = median(traced_walls) / untraced_wall;

  // Time each request spent outside the replayed layers: transport,
  // queueing behind other requests and forwarding.
  std::vector<double> waits;
  for (const auto& round_out : fixed) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      double layer_s = 0.0;
      for (const auto& [name, self] : spans.self_seconds_of(i + 1)) {
        if (name != "op") layer_s += self;
      }
      waits.push_back(std::max(0.0, round_out[i].latency_s - layer_s) * 1e3);
    }
  }
  layers["serve.wait_p99_ms"] = percentile(waits, supported_quantile(waits.size(), 0.99));
  layers["serve.gen_lag_p99_ms"] = percentile(lags, supported_quantile(lags.size(), 0.99));
  layers["serve.transport.rtt_p50_us"] = median(rtts);
  double bytes = 0.0;
  for (const auto& round_out : fixed) {
    for (const auto& o : round_out) {
      bytes += static_cast<double>(o.request_bytes + o.response_bytes);
    }
  }
  layers["serve.protocol.bytes"] = bytes;

  // Exact counts: the servers' merged obs registries over the fixed
  // sequence, summed over the rounds.
  auto d = [&](const std::string& name) {
    return counters.count(name) ? counters.at(name) : 0.0;
  };
  layers["sim.instructions"] = d("sim.instructions");
  layers["dtw.cells"] = d("dtw.cells");
  const double hits = d("cache.hits");
  const double misses = d("cache.misses");
  layers["dtw.prime_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers["dtw.delta_upserts"] = d("cache.delta_upserts");
  layers["cluster.kmeans_iterations"] = d("kmeans.iterations");
  layers["cluster.silhouette_evals"] = d("silhouette.evaluations");
  layers["pca.eigen_sweeps"] = d("eigen.sweeps");
  layers["stats.ks_tests"] = d("spread.ks_tests");
  const double requests = d("router.requests");
  layers["serve.cache.hit_ratio"] = requests > 0 ? d("router.cache_hit") / requests : 0.0;
  layers["serve.router.forwarded"] = d("router.forwarded");
  layers["serve.router.forward_busy_s"] = d("router.forward.latency.sum") / 1e6;
  layers["serve.rejected"] = d("serve.rejected");
  layers["serve.timeouts"] = d("serve.timeouts");
  layers["ingest.bytes"] = d("ingest.bytes");
  layers["ingest.rows"] = d("ingest.rows");
  layers["ingest.chunks"] = d("ingest.chunks");
  layers["par.tasks"] = d("par.tasks");
  const double acquires = d("mem.scratch.acquires");
  layers["mem.scratch_reuse_ratio"] = acquires > 0 ? d("mem.scratch.reuses") / acquires : 0.0;
  double max_fwd = 0.0;
  double sum_fwd = 0.0;
  for (const double f : forwarded) {
    max_fwd = std::max(max_fwd, f);
    sum_fwd += f;
  }
  layers["serve.router.shard_imbalance"] =
      sum_fwd > 0 ? max_fwd / (sum_fwd / static_cast<double>(forwarded.size())) : 0.0;
  emit_layers(result, layers);
  return result.print();
}

}  // namespace perfbench
