// jobd-http: an in-process PhishJobD (HttpServer + make_jobd_handler +
// JobService + LocalBackend at phish-jobd's defaults) driven over HTTP by
// two keep-alive client connections.  Each client submits a fib job, polls
// its status until done, checks the result and submits the next.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "apps/fib/fib.hpp"
#include "core/local_runner.hpp"
#include "harness/bench.hpp"
#include "harness/child.hpp"
#include "harness/probes.hpp"
#include "jobsvc/http.hpp"
#include "jobsvc/jobd.hpp"
#include "jobsvc/json.hpp"
#include "jobsvc/local_backend.hpp"
#include "jobsvc/service.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace jobsvc = phish::jobsvc;

constexpr int kClients = 2;
constexpr int kBackendThreads = 2;  // phish-jobd's defaults
constexpr std::size_t kMaxActive = 8;
constexpr std::size_t kMaxBacklog = 64;
constexpr std::int64_t kCutoff = 8;
constexpr int kStandups = 9;
constexpr double kNominalJobsPerS = 20000;
/// A job not done after this long counts as failed.
constexpr double kJobDeadlineS = 5.0;

/// Blocking HTTP/1.1 client on one keep-alive connection.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient() { disconnect(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }

  /// Open the connection and prove it with one GET /v1/healthz.  False
  /// when the connect is refused or the server drops the connection.
  bool open() {
    disconnect();
    if (!connect_now()) return false;
    int status = 0;
    std::string reply;
    return exchange("GET", "/v1/healthz", "", status, reply) && status == 200;
  }

  /// One request/response exchange on the open connection; false (and the
  /// connection closed) when it is broken.
  bool exchange(const std::string& method, const std::string& target,
                const std::string& body, int& status, std::string& reply) {
    if (fd_ < 0) return false;
    std::string request = method + " " + target +
                          " HTTP/1.1\r\nhost: 127.0.0.1\r\n";
    if (!body.empty()) {
      request += "content-type: application/json\r\ncontent-length: " +
                 std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n" + body;
    if (!send_all(request) || !read_response(status, reply)) {
      disconnect();
      return false;
    }
    ++responses_;
    return true;
  }

  /// Responses read so far (to cross-check HttpServer::Stats).
  std::uint64_t responses() const noexcept { return responses_; }

 private:
  bool connect_now() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      disconnect();
      return false;
    }
    return true;
  }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  bool read_response(int& status, std::string& body) {
    std::size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return false;
    }
    const std::string head = buffer_.substr(0, head_end);
    if (head.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    status = std::atoi(head.c_str() + 9);
    std::size_t length = 0;
    std::string lower = head;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const std::size_t cl = lower.find("\r\ncontent-length:");
    if (cl != std::string::npos) {
      length = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
    }
    while (buffer_.size() < head_end + 4 + length) {
      if (!fill()) return false;
    }
    body = buffer_.substr(head_end + 4, length);
    buffer_.erase(0, head_end + 4 + length);
    return true;
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
  std::uint64_t responses_ = 0;
};

/// Connection attempts and how many failed (refused, or dropped by the
/// server before the health check was answered).  Each attempt is one
/// operation of the run.
struct Connects {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Bring `client` to an open connection, retrying a bounded number of times.
bool ensure_open(HttpClient& client, Connects& connects) {
  constexpr int kAttempts = 3;
  for (int i = 0; i < kAttempts && !client.connected(); ++i) {
    ++connects.attempted;
    if (!client.open()) ++connects.failed;
  }
  return client.connected();
}

std::string submit_body(std::int64_t n) {
  return "{\"root_task\":\"fib.task\",\"tenant\":\"bench\",\"args\":[" +
         std::to_string(n) + "]}";
}

/// One in-process PhishJobD plus its client connections.  Teardown order
/// matters: clients, then the server, then the backend's threads (which call
/// back into the service), then the service.
struct JobD {
  phish::obs::SteadyClock clock;
  phish::TaskRegistry registry;
  std::unique_ptr<jobsvc::LocalBackend> backend;
  std::unique_ptr<jobsvc::JobService> service;
  std::unique_ptr<jobsvc::HttpServer> server;
  std::vector<std::unique_ptr<HttpClient>> clients;

  JobD() {
    phish::apps::register_fib(registry, kCutoff);
    backend = std::make_unique<jobsvc::LocalBackend>(registry, kBackendThreads);
    jobsvc::ServiceConfig config;
    config.max_active = kMaxActive;
    config.max_backlog = kMaxBacklog;
    service = std::make_unique<jobsvc::JobService>(clock, *backend, config);
    backend->bind(*service);
    server = std::make_unique<jobsvc::HttpServer>(
        jobsvc::HttpServerConfig{}, jobsvc::make_jobd_handler(*service));
    server->start();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<HttpClient>(server->port()));
    }
  }

  /// Open every client's connection; false if one cannot be opened.
  bool connect_all(Connects& connects) {
    bool ok = true;
    for (auto& c : clients) ok = ensure_open(*c, connects) && ok;
    return ok;
  }
  ~JobD() {
    clients.clear();
    server.reset();
    backend.reset();
    service.reset();
  }
  JobD(const JobD&) = delete;
  JobD& operator=(const JobD&) = delete;
};

/// What one client saw of one job.
struct ClientJob {
  bool accepted = false;  // the POST was answered 202
  bool ok = false;
  bool wrong = false;
  double job_s = 0;
  double submit_s = 0;
  std::uint64_t polls = 0;
};

ClientJob run_job(HttpClient& client, std::int64_t n, std::uint64_t job,
                  SpanRecorder* spans, std::string& why) {
  ClientJob r;
  std::optional<SpanRecorder::Scope> job_span;
  if (spans != nullptr) job_span.emplace(spans->open("jobsvc.job", job));
  int status = 0;
  std::string reply;
  const double t0 = now_s();
  {
    std::optional<SpanRecorder::Scope> span;
    if (spans != nullptr) span.emplace(spans->open("jobsvc.http.post", job));
    if (!client.exchange("POST", "/v1/jobs", submit_body(n), status, reply) ||
        status != 202) {
      why = "POST /v1/jobs: status " + std::to_string(status);
      return r;
    }
  }
  r.submit_s = now_s() - t0;
  r.accepted = true;
  const auto submitted = jobsvc::parse_json(reply);
  const auto id = submitted ? submitted->get_int("job_id") : std::nullopt;
  if (!id) {
    why = "202 without a job_id";
    return r;
  }
  const std::string target = "/v1/jobs/" + std::to_string(*id);
  std::optional<jobsvc::JsonValue> polled;
  while (true) {
    {
      std::optional<SpanRecorder::Scope> span;
      if (spans != nullptr) span.emplace(spans->open("jobsvc.http.get", job));
      ++r.polls;
      if (!client.exchange("GET", target, "", status, reply) || status != 200) {
        why = "GET " + target + ": status " + std::to_string(status);
        return r;
      }
    }
    r.job_s = now_s() - t0;
    polled = jobsvc::parse_json(reply);
    const auto state = polled ? polled->get_string("state") : std::nullopt;
    if (state == "done") break;
    if (!state || *state == "cancelled") {
      why = "job ended in state " + state.value_or("?");
      return r;
    }
    if (r.job_s > kJobDeadlineS) {
      why = "job not done within the deadline";
      return r;
    }
  }
  r.wrong = polled->get_int("result") != fib_reference(static_cast<int>(n));
  r.ok = !r.wrong;
  if (r.wrong) why = "wrong result for fib(" + std::to_string(n) + ")";
  return r;
}

struct HttpPass {
  JobSamples samples;
  Connects connects;  // reconnections after a broken connection
  std::uint64_t accepted = 0;
  std::uint64_t polls = 0;
  std::uint64_t wrong = 0;
};

/// The n of each job: uniform in 14..18, drawn from stream `stream` of
/// the seed.  Client c draws its jobs' n from stream c.
class JobMix {
 public:
  JobMix(std::uint64_t seed, int stream)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 3 +
             static_cast<std::uint64_t>(stream)) {}
  std::int64_t next() {
    return 14 + static_cast<std::int64_t>(rng_.next() % 5);
  }

 private:
  phish::Xoshiro256 rng_;
};

/// Both clients, closed loop, `jobs` jobs in all (client c takes jobs c,
/// c + kClients, ...).  Each client writes only its own slots of the
/// preallocated timings; counts are merged after the join.
HttpPass run_pass(JobD& jobd, std::size_t jobs, std::uint64_t seed,
                  SpanRecorder* spans, Outcome& out) {
  constexpr float kFailed = std::numeric_limits<float>::infinity();
  struct PerClient {
    std::uint64_t accepted = 0, failed = 0, polls = 0, wrong = 0;
    Connects connects;
    std::vector<std::string> errors;
  };
  HttpPass pass;
  pass.samples.job_s.assign(jobs, kFailed);
  pass.samples.submit_s.assign(jobs, kFailed);
  std::vector<PerClient> per(kClients);
  std::optional<SpanRecorder::Scope> pass_span;
  if (spans != nullptr) pass_span.emplace(spans->open("pass.http"));
  const std::uint32_t pass_id = pass_span ? pass_span->id() : 0;
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::optional<SpanRecorder::Scope> client_span;
      if (spans != nullptr) {
        client_span.emplace(spans->open_under(pass_id, "jobsvc.client"));
      }
      PerClient& mine = per[c];
      JobMix mix(seed, c);
      for (std::size_t k = static_cast<std::size_t>(c); k < jobs; k += kClients) {
        const std::int64_t n = mix.next();
        std::string why = "could not open a connection";
        HttpClient& client = *jobd.clients[c];
        ClientJob j;
        if (past_run_budget()) {
          why = "run budget spent before the job started";
        } else if (ensure_open(client, mine.connects)) {
          j = run_job(client, n, k + 1, spans, why);
        }
        mine.polls += j.polls;
        mine.accepted += j.accepted ? 1 : 0;
        mine.wrong += j.wrong ? 1 : 0;
        if (j.ok) {
          pass.samples.job_s[k] = static_cast<float>(j.job_s);
          pass.samples.submit_s[k] = static_cast<float>(j.submit_s);
        } else {
          ++mine.failed;
          if (mine.errors.size() < 5) mine.errors.push_back(why);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  pass.samples.window_s = now_s() - start;
  pass.samples.attempted = jobs;
  for (const PerClient& p : per) {
    pass.samples.failed += p.failed;
    pass.accepted += p.accepted;
    pass.polls += p.polls;
    pass.wrong += p.wrong;
    pass.connects.attempted += p.connects.attempted;
    pass.connects.failed += p.connects.failed;
    for (const std::string& e : p.errors) out.note("job failed: " + e);
  }
  if (pass.wrong != 0) {
    out.fail_check(std::to_string(pass.wrong) + " jobs returned a wrong result");
  }
  return pass;
}

/// The first `jobs` n of stream 0: the mix the layer probes run.
std::vector<std::int64_t> probe_mix(std::uint64_t seed, std::size_t jobs) {
  JobMix mix(seed, 0);
  std::vector<std::int64_t> n(jobs);
  for (auto& v : n) v = mix.next();
  return n;
}

/// Poll `service` until job `id` is done; false once kJobDeadlineS has
/// passed since `t0` or the run budget is spent.
bool wait_done(const jobsvc::JobService& service, std::uint64_t id, double t0) {
  while (true) {
    const auto status = service.status(id);
    if (status && status->state == jobsvc::JobState::kDone) return true;
    if (now_s() - t0 > kJobDeadlineS || past_run_budget()) return false;
    std::this_thread::yield();
  }
}

/// jobsvc: JobService::submit called in-process on a fresh service with
/// the same configuration, one job in flight; times only the submit call.
/// Each job is one operation of the run.
double probe_submit_direct_us(SpanRecorder& spans,
                              const std::vector<std::int64_t>& mix,
                              Outcome& out) {
  phish::obs::SteadyClock clock;
  phish::TaskRegistry registry;
  phish::apps::register_fib(registry, kCutoff);
  jobsvc::LocalBackend backend(registry, kBackendThreads);
  jobsvc::ServiceConfig config;
  config.max_active = kMaxActive;
  config.max_backlog = kMaxBacklog;
  jobsvc::JobService service(clock, backend, config);
  backend.bind(service);
  std::vector<double> us;
  for (const std::int64_t n : mix) {
    jobsvc::SubmitRequest request;
    request.tenant = "bench";
    request.root_task = "fib.task";
    request.args = {phish::Value(n)};
    std::optional<SpanRecorder::Scope> span(spans.open("jobsvc.service.submit"));
    const double t0 = now_s();
    const jobsvc::SubmitResult result = service.submit(std::move(request));
    us.push_back((now_s() - t0) * 1e6);
    span.reset();
    ++out.attempted;
    if (!result.accepted()) {
      ++out.failed;
      out.fail_check("in-process submit rejected");
      break;
    }
    if (!wait_done(service, result.job_id, t0)) {
      ++out.failed;
      out.fail_check("in-process job not done within the deadline");
      break;
    }
  }
  backend.drain();
  return median(us);
}

/// jobsvc: parse_submit_body on the bodies the clients send, in batches.
double probe_json_parse_us(SpanRecorder& spans,
                           const std::vector<std::int64_t>& mix,
                           Outcome& out) {
  std::vector<std::string> bodies;
  for (const std::int64_t n : mix) bodies.push_back(submit_body(n));
  std::vector<double> us;
  std::size_t parsed = 0;
  for (int batch = 0; batch < 20; ++batch) {
    auto span = spans.open("jobsvc.parse_submit_body", 0, bodies.size());
    const double t0 = now_s();
    for (const std::string& body : bodies) {
      if (jobsvc::parse_submit_body(body)) ++parsed;
    }
    us.push_back((now_s() - t0) * 1e6 / static_cast<double>(bodies.size()));
  }
  if (parsed != 20 * bodies.size()) out.fail_check("submit body did not parse");
  return median(us);
}

double histogram_p50_us(const phish::obs::MetricsSnapshot& snap,
                        const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end()
             ? 0.0
             : static_cast<double>(it->second.quantile(0.5)) / 1e3;
}

}  // namespace

Outcome run_jobd_http(const Options& opt, SpanRecorder& spans) {
  Outcome out;
  const std::string input =
      "fib.task cutoff=8, n uniform in 14..18; 2 keep-alive clients; "
      "2 backend threads, max_active 8, max_backlog 64";

  // Every connection attempt is an operation of the run; one the server
  // refuses, or drops before answering its health check, counts as failed.
  Connects connects;
  auto count_connects = [&] {
    out.attempted += connects.attempted;
    out.failed += connects.failed;
    out.note("connections and warm-up jobs of this process: " +
             std::to_string(connects.attempted) + ", failed: " +
             std::to_string(connects.failed));
  };

  // Setup: the median of several cold stand-ups, each bringing up the
  // service, opening both connections and running one checked warm-up job.
  // Then this process stands up the service its timed jobs use, the same
  // way.
  const auto stand_up = [](Connects& connects, std::string& why)
      -> std::unique_ptr<JobD> {
    auto jobd = std::make_unique<JobD>();
    why = "no connection could be opened";
    if (!jobd->connect_all(connects)) return nullptr;
    const ClientJob warm = run_job(*jobd->clients[0], 16, 0, nullptr, why);
    ++connects.attempted;  // the warm-up job is one more operation
    if (!warm.ok) {
      ++connects.failed;
      return nullptr;
    }
    return jobd;
  };
  const double setup_s = cold_setup_s(kStandups, 60, spans, out, [&] {
    Standup s;
    Connects ops;
    std::string why;
    const double t0 = now_s();
    const bool ok = stand_up(ops, why) != nullptr;
    s.seconds = now_s() - t0;
    s.attempted = ops.attempted;
    s.failed = ops.failed;
    if (!ok) std::snprintf(s.why, sizeof s.why, "%s", why.c_str());
    return s;
  });
  std::string why;
  const std::unique_ptr<JobD> jobd = stand_up(connects, why);
  if (!jobd) {
    count_connects();
    out.fail_check("the service for the timed jobs did not stand up: " + why);
    return out;
  }

  if (!opt.trace) {
    const std::size_t jobs = job_count(opt.seconds, kNominalJobsPerS, 400);
    out.note(provenance(opt, kClients, input, jobs));
    const HttpPass pass = run_pass(*jobd, jobs, opt.seed, nullptr, out);
    report_end_to_end(out, setup_s, pass.samples);
    connects.attempted += pass.connects.attempted;
    connects.failed += pass.connects.failed;
    count_connects();
    return out;
  }

  // Pass A: untraced reference; pass B: spans around every HTTP call, with
  // the registry histograms and the service and server counters.  The
  // program has no tracer to attach on this path, so there is no pass C.
  const std::size_t jobs_a = job_count(opt.seconds * 0.4, kNominalJobsPerS, 200);
  const std::size_t jobs_b = job_count(opt.seconds * 0.15, kNominalJobsPerS, 200);
  out.note(provenance(opt, kClients, input, jobs_a + jobs_b));

  const jobsvc::JobService::Counters before = jobd->service->counters();
  HttpPass pass_a;
  {
    auto span = spans.open("pass.untraced");
    pass_a = run_pass(*jobd, jobs_a, opt.seed, nullptr, out);
  }

  phish::obs::Registry::global().reset();
  const jobsvc::HttpServer::Stats http_before = jobd->server->stats();
  std::uint64_t responses = 0;
  for (const auto& c : jobd->clients) responses -= c->responses();
  HttpPass pass_b = run_pass(*jobd, jobs_b, opt.seed, &spans, out);
  const auto snap = phish::obs::Registry::global().snapshot();
  const jobsvc::HttpServer::Stats http_after = jobd->server->stats();
  for (const auto& c : jobd->clients) responses += c->responses();
  const jobsvc::JobService::Counters after = jobd->service->counters();

  out.count(pass_a.samples);
  out.count(pass_b.samples);
  for (const HttpPass* p : {&pass_a, &pass_b}) {
    connects.attempted += p->connects.attempted;
    connects.failed += p->connects.failed;
  }
  count_connects();
  // Cross-checks against the program's own counters: on a pass where no
  // connection broke, the server answered exactly what the clients read.
  if (pass_b.samples.failed == 0 &&
      (http_after.requests - http_before.requests != responses ||
       http_after.bad_requests != http_before.bad_requests)) {
    out.fail_check("HttpServer::Stats disagree with the responses read");
  }
  const std::uint64_t rejected =
      (after.rejected_rate - before.rejected_rate) +
      (after.rejected_quota - before.rejected_quota) +
      (after.rejected_backlog - before.rejected_backlog) +
      (after.rejected_degraded - before.rejected_degraded);
  if (after.accepted - before.accepted != pass_a.accepted + pass_b.accepted) {
    out.fail_check("JobService::counters disagree with the jobs submitted");
  }

  const std::vector<std::int64_t> mix = probe_mix(opt.seed, 2000);
  const double submit_direct_us = probe_submit_direct_us(spans, mix, out);
  const double submit_http_us = median(pass_a.samples.submit_s) * 1e6;
  out.set("jobsvc.submit_direct_us_p50", submit_direct_us);
  out.set("jobsvc.json_parse_us_p50", probe_json_parse_us(spans, mix, out));
  out.set("jobsvc.http_us_p50", submit_http_us - submit_direct_us);
  out.set("jobsvc.queue_wait_us_p50", histogram_p50_us(snap, "jobsvc.queue_wait_ns"));
  out.set("jobsvc.first_task_us_p50",
          histogram_p50_us(snap, "jobsvc.submit_to_first_task_ns"));
  out.set("jobsvc.turnaround_us_p50", histogram_p50_us(snap, "jobsvc.turnaround_ns"));
  out.set("jobsvc.polls_per_job",
          ratio(static_cast<double>(pass_b.polls),
                static_cast<double>(pass_b.samples.attempted)));
  out.set("jobsvc.rejected", static_cast<double>(rejected));

  // core and apps: the backend runs each job on a LocalRunner; the serial
  // reference is fib_serial over the same mix.  Speedup has no meaning here
  // (one job is microseconds of compute behind an HTTP round trip).
  const std::vector<std::int64_t> local_mix(mix.begin(), mix.begin() + 500);
  out.set("core.local_ns_per_task",
          probe_local_ns_per_task(
              spans,
              [](phish::TaskRegistry& r) {
                return phish::apps::register_fib(r, kCutoff);
              },
              local_mix, 5));
  {
    phish::TaskRegistry registry;
    const phish::TaskId root = phish::apps::register_fib(registry, kCutoff);
    phish::LocalRunner runner(registry);
    for (const std::int64_t n : local_mix) runner.run(root, {phish::Value(n)});
    const double jobs = static_cast<double>(local_mix.size());
    out.set("core.tasks_per_job",
            ratio(static_cast<double>(runner.stats().tasks_executed), jobs));
    out.set("core.max_tasks_in_use",
            static_cast<double>(runner.stats().max_tasks_in_use));
    out.set("core.non_local_synchs_per_job",
            ratio(static_cast<double>(runner.stats().non_local_synchs), jobs));
  }
  const double serial_s = probe_serial(
      spans,
      [&] {
        std::int64_t sum = 0;
        for (const std::int64_t n : local_mix) sum += phish::apps::fib_serial(n);
        volatile std::int64_t sink = sum;
        (void)sink;
      },
      21);
  out.set("apps.serial_s", serial_s / static_cast<double>(local_mix.size()));

  out.note(describe("untraced job_s", summarize(pass_a.samples.job_s)));
  out.note(describe("untraced submit_s", summarize(pass_a.samples.submit_s)));
  out.note(describe("spans job_s", summarize(pass_b.samples.job_s)));
  out.note("obs: the job service has no tracer attach point; obs.* read 0");
  return out;
}

}  // namespace perfbench
