// End-to-end tests for PhishJobD's HTTP surface: a real HttpServer on an
// ephemeral port, a real JobService, and a LocalBackend running real task
// graphs — exercised through raw sockets like any external client would.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/fib/fib.hpp"
#include "core/worker_core.hpp"
#include "jobsvc/http.hpp"
#include "jobsvc/jobd.hpp"
#include "jobsvc/json.hpp"
#include "jobsvc/local_backend.hpp"
#include "jobsvc/service.hpp"

namespace phish::jobsvc {
namespace {

// ---------------------------------------------------------------------------
// Minimal blocking HTTP/1.1 client (connection: close per request).

struct ClientResponse {
  int status = 0;
  std::string body;
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<std::size_t>(n);
  }
}

std::string recv_until_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

ClientResponse request(std::uint16_t port, const std::string& method,
                       const std::string& target, const std::string& body = "") {
  ClientResponse resp;
  const int fd = connect_to(port);
  EXPECT_GE(fd, 0) << "connect to 127.0.0.1:" << port;
  if (fd < 0) return resp;
  std::string wire = method + " " + target +
                     " HTTP/1.1\r\nhost: 127.0.0.1\r\nconnection: close\r\n"
                     "content-length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body;
  send_all(fd, wire);
  const std::string raw = recv_until_eof(fd);
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0 && raw.size() >= 12) {
    resp.status = std::stoi(raw.substr(9, 3));
  }
  const auto split = raw.find("\r\n\r\n");
  if (split != std::string::npos) resp.body = raw.substr(split + 4);
  return resp;
}

// ---------------------------------------------------------------------------
// Fixture: registry (fib + a gated blocking task) + service + HTTP server.

/// Open/closed gate a task can block on, so tests can hold a job "active"
/// for as long as they need.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  void release() {
    std::lock_guard<std::mutex> lock(m);
    open = true;
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return open; });
  }
};

class JobdHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    apps::register_fib(registry_);
    gate_ = std::make_shared<Gate>();
    auto gate = gate_;
    registry_.add("block.task", [gate](Context& cx, Closure& c) {
      gate->wait();
      cx.send(c.cont, std::int64_t{77});
    });

    backend_ = std::make_unique<LocalBackend>(registry_, /*threads=*/2);
    ServiceConfig cfg;
    cfg.max_active = 2;
    cfg.max_backlog = 4;
    service_ = std::make_unique<JobService>(clock_, *backend_, cfg);
    backend_->bind(*service_);

    server_ = std::make_unique<HttpServer>(HttpServerConfig{},
                                           make_jobd_handler(*service_));
    server_->start();
    port_ = server_->port();
    ASSERT_GT(port_, 0);
  }

  void TearDown() override {
    gate_->release();  // unblock any still-held jobs
    backend_->drain();
    server_->stop();
  }

  /// Poll the status endpoint until the job reaches `state` (or time out).
  JsonValue await_state(std::uint64_t job_id, const std::string& state) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      const auto resp =
          request(port_, "GET", "/v1/jobs/" + std::to_string(job_id));
      EXPECT_EQ(resp.status, 200);
      auto doc = parse_json(resp.body);
      EXPECT_TRUE(doc.has_value()) << resp.body;
      if (doc && *doc->get_string("state") == state) return std::move(*doc);
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "job " << job_id << " never reached " << state
                      << "; last: " << resp.body;
        return doc ? std::move(*doc) : JsonValue();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  TaskRegistry registry_;
  obs::SteadyClock clock_;
  std::shared_ptr<Gate> gate_;
  std::unique_ptr<LocalBackend> backend_;
  std::unique_ptr<JobService> service_;
  std::unique_ptr<HttpServer> server_;
  std::uint16_t port_ = 0;
};

TEST_F(JobdHttpTest, SubmitRunsToCompletionViaStatusEndpoint) {
  // The acceptance path: POST a real fib job, watch it go active, and read
  // the computed result back through the status endpoint.
  const auto submit = request(port_, "POST", "/v1/jobs",
                              R"({"root_task":"fib.task","args":[15],
                                  "tenant":"alice","name":"fib15"})");
  ASSERT_EQ(submit.status, 202) << submit.body;
  const auto ack = parse_json(submit.body);
  ASSERT_TRUE(ack.has_value());
  const std::uint64_t id =
      static_cast<std::uint64_t>(*ack->get_int("job_id"));
  EXPECT_GT(id, 0u);

  const JsonValue done = await_state(id, "done");
  EXPECT_EQ(*done.get_string("tenant"), "alice");
  EXPECT_EQ(*done.get_string("name"), "fib15");
  EXPECT_EQ(*done.get_string("root_task"), "fib.task");
  EXPECT_EQ(*done.get_int("result"), 610) << "fib(15)";
  EXPECT_GT(*done.get_int("finished_ns"), *done.get_int("submitted_ns"));
  EXPECT_GT(*done.get_int("first_task_ns"), 0);
}

TEST_F(JobdHttpTest, ListAndStatsReflectSubmissions) {
  const auto a = request(port_, "POST", "/v1/jobs",
                         R"({"root_task":"fib.task","args":[10],"tenant":"a"})");
  const auto b = request(port_, "POST", "/v1/jobs",
                         R"({"root_task":"fib.task","args":[10],"tenant":"b"})");
  ASSERT_EQ(a.status, 202);
  ASSERT_EQ(b.status, 202);
  backend_->drain();

  const auto all = parse_json(request(port_, "GET", "/v1/jobs").body);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->get("jobs")->as_array().size(), 2u);
  const auto only_a =
      parse_json(request(port_, "GET", "/v1/jobs?tenant=a").body);
  ASSERT_TRUE(only_a.has_value());
  ASSERT_EQ(only_a->get("jobs")->as_array().size(), 1u);
  EXPECT_EQ(only_a->get("jobs")->as_array()[0].get_string("tenant")->compare(
                "a"),
            0);

  const auto stats = parse_json(request(port_, "GET", "/v1/stats").body);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(*stats->get_int("accepted"), 2);
  EXPECT_EQ(*stats->get_int("completed"), 2);
  EXPECT_EQ(*stats->get_int("active"), 0);
}

TEST_F(JobdHttpTest, CancelPendingJobAndRefuseFinishedJob) {
  // Fill both active slots with gated jobs, then queue a third: it stays
  // pending and DELETE cancels it without it ever running.
  const char* blocked = R"({"root_task":"block.task"})";
  const auto r1 = request(port_, "POST", "/v1/jobs", blocked);
  const auto r2 = request(port_, "POST", "/v1/jobs", blocked);
  const auto r3 = request(port_, "POST", "/v1/jobs", blocked);
  ASSERT_EQ(r1.status, 202);
  ASSERT_EQ(r2.status, 202);
  ASSERT_EQ(r3.status, 202);
  const auto id3 = *parse_json(r3.body)->get_int("job_id");

  auto st3 = parse_json(
      request(port_, "GET", "/v1/jobs/" + std::to_string(id3)).body);
  EXPECT_EQ(*st3->get_string("state"), "pending");
  const auto del =
      request(port_, "DELETE", "/v1/jobs/" + std::to_string(id3));
  EXPECT_EQ(del.status, 200) << del.body;
  await_state(static_cast<std::uint64_t>(id3), "cancelled");

  // Let the active jobs finish; a finished job cannot be cancelled.
  gate_->release();
  const auto id1 = *parse_json(r1.body)->get_int("job_id");
  await_state(static_cast<std::uint64_t>(id1), "done");
  const auto late =
      request(port_, "DELETE", "/v1/jobs/" + std::to_string(id1));
  EXPECT_EQ(late.status, 409);
}

TEST_F(JobdHttpTest, RejectsBadAndUnknownRequests) {
  EXPECT_EQ(request(port_, "POST", "/v1/jobs", "not json").status, 400);
  EXPECT_EQ(request(port_, "POST", "/v1/jobs",
                    R"({"root_task":"x","args":[true]})")
                .status,
            400)
      << "bool args have no Value mapping";
  EXPECT_EQ(request(port_, "GET", "/v1/jobs/9999").status, 404);
  EXPECT_EQ(request(port_, "DELETE", "/v1/jobs/9999").status, 404);
  EXPECT_EQ(request(port_, "GET", "/v1/nope").status, 404);
  EXPECT_EQ(request(port_, "PUT", "/v1/jobs").status, 405);
  EXPECT_EQ(request(port_, "GET", "/v1/healthz").status, 200);
}

TEST_F(JobdHttpTest, RateLimitedSubmitGets429WithRetryHint) {
  TenantPolicy policy;
  policy.rate_per_sec = 0.001;  // effectively: burst only
  policy.burst = 1.0;
  service_->configure_tenant("throttled", policy);
  const char* body = R"({"root_task":"fib.task","args":[5],
                         "tenant":"throttled"})";
  EXPECT_EQ(request(port_, "POST", "/v1/jobs", body).status, 202);
  const auto rejected = request(port_, "POST", "/v1/jobs", body);
  EXPECT_EQ(rejected.status, 429);
  const auto doc = parse_json(rejected.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(*doc->get_string("error"), "rate_limited");
  EXPECT_GT(*doc->get_int("retry_after_ns"), 0);
}

TEST_F(JobdHttpTest, KeepAliveServesPipelinedRequests) {
  const int fd = connect_to(port_);
  ASSERT_GE(fd, 0);
  const std::string one =
      "GET /v1/healthz HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\n\r\n";
  send_all(fd, one + one);  // two requests, one write, no connection: close
  std::string got;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    std::size_t count = 0, pos = 0;
    while ((pos = got.find("{\"ok\":true}", pos)) != std::string::npos) {
      ++count;
      pos += 1;
    }
    if (count >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(fd);
  std::size_t count = 0, pos = 0;
  while ((pos = got.find("{\"ok\":true}", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 2u) << got;
}

TEST_F(JobdHttpTest, MalformedRequestLineGets400) {
  const int fd = connect_to(port_);
  ASSERT_GE(fd, 0);
  send_all(fd, "THIS IS NOT HTTP\r\n\r\n");
  const std::string raw = recv_until_eof(fd);
  ::close(fd);
  EXPECT_NE(raw.find("400"), std::string::npos) << raw;
  EXPECT_GE(server_->stats().bad_requests, 1u);
}

TEST(HttpServerPoll, AnswersEveryConnectionAcceptedInOneRound) {
  // Handlers run on the server thread, so a held request keeps the server
  // away from poll() while more connections queue in the listen backlog.
  // The next round accepts them all at once, before any has a pollfd; every
  // one must still be answered.
  std::mutex m;
  std::condition_variable cv;
  bool held = false, released = false;
  HttpServer server(HttpServerConfig{}, [&](const HttpRequest& req) {
    if (req.path == "/hold") {
      std::unique_lock<std::mutex> lock(m);
      held = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
    return HttpResponse::json(200, "{\"path\":\"" + req.path + "\"}");
  });
  server.start();
  const auto get = [](const std::string& path) {
    return "GET " + path +
           " HTTP/1.1\r\nhost: x\r\nconnection: close\r\n"
           "content-length: 0\r\n\r\n";
  };
  const int hold = connect_to(server.port());
  ASSERT_GE(hold, 0);
  send_all(hold, get("/hold"));
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return held; });
  }
  constexpr int kConns = 8;
  std::vector<int> fds;
  for (int k = 0; k < kConns; ++k) {
    fds.push_back(connect_to(server.port()));
    ASSERT_GE(fds.back(), 0);
    send_all(fds.back(), get("/c" + std::to_string(k)));
  }
  {
    std::lock_guard<std::mutex> lock(m);
    released = true;
  }
  cv.notify_all();
  const std::string first = recv_until_eof(hold);
  ::close(hold);
  EXPECT_NE(first.find("{\"path\":\"/hold\"}"), std::string::npos) << first;
  for (int k = 0; k < kConns; ++k) {
    const std::string raw = recv_until_eof(fds[k]);
    ::close(fds[k]);
    EXPECT_NE(raw.find("{\"path\":\"/c" + std::to_string(k) + "\"}"),
              std::string::npos)
        << "connection " << k << " got: " << raw;
  }
  server.stop();
  EXPECT_EQ(server.stats().connections, static_cast<std::uint64_t>(kConns + 1));
}

// ---------------------------------------------------------------------------
// Codec units (no server needed).

TEST(SubmitBody, ParsesFullRequest) {
  const auto req = parse_submit_body(
      R"({"root_task":"fib.task","name":"demo","tenant":"t1",
          "priority":"high","args":[13, 2.5, "bytes"]})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->root_task, "fib.task");
  EXPECT_EQ(req->name, "demo");
  EXPECT_EQ(req->tenant, "t1");
  EXPECT_EQ(req->priority, kPriorityHigh);
  ASSERT_EQ(req->args.size(), 3u);
  EXPECT_EQ(req->args[0].as_int(), 13);
  EXPECT_DOUBLE_EQ(req->args[1].as_double(), 2.5);
  EXPECT_EQ(req->args[2].as_blob(), Bytes({'b', 'y', 't', 'e', 's'}));
}

TEST(SubmitBody, RejectsMissingRootAndBadTypes) {
  EXPECT_FALSE(parse_submit_body("{}").has_value());
  EXPECT_FALSE(parse_submit_body("[1,2]").has_value());
  EXPECT_FALSE(parse_submit_body(R"({"root_task":""})").has_value());
  EXPECT_FALSE(
      parse_submit_body(R"({"root_task":"x","priority":"urgent"})").has_value());
  EXPECT_FALSE(
      parse_submit_body(R"({"root_task":"x","tenant":""})").has_value());
  EXPECT_FALSE(
      parse_submit_body(R"({"root_task":"x","args":[null]})").has_value());
  EXPECT_FALSE(
      parse_submit_body(R"({"root_task":"x","args":[[1]]})").has_value());
}

TEST(Priority, NamesRoundTrip) {
  for (const char* name : {"low", "normal", "high"}) {
    const auto p = parse_priority(name);
    ASSERT_TRUE(p.has_value());
    EXPECT_STREQ(priority_name(*p), name);
  }
  EXPECT_FALSE(parse_priority("urgent").has_value());
  EXPECT_FALSE(parse_priority("").has_value());
}

TEST(UrlDecode, DecodesEscapesAndRejectsBadOnes) {
  EXPECT_EQ(*url_decode("plain"), "plain");
  EXPECT_EQ(*url_decode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(*url_decode("x+y"), "x y");
  EXPECT_FALSE(url_decode("bad%2").has_value());
  EXPECT_FALSE(url_decode("bad%zz").has_value());
}

}  // namespace
}  // namespace phish::jobsvc
