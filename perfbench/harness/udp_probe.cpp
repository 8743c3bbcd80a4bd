// The runtime/udp probe of fib-fine's traced run: closed-loop jobs through
// UdpJob::run on loopback, P=2.  Every job stands up a Clearinghouse and two
// workers on ephemeral ports, steals by RPC, returns its result and winds
// down.
//
// Each job runs in a child process of its own.  UdpJob::run can abort the
// process while it tears down (a Clearinghouse RPC completion that fires
// after its client was destroyed), and can hang until its watchdog fires;
// in a child, either costs one failed operation instead of the whole run.
// The child times the public call itself, so fork and exit are not in it.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/fib/fib.hpp"
#include "harness/bench.hpp"
#include "harness/child.hpp"
#include "harness/probes.hpp"
#include "runtime/udp/udp_runtime.hpp"

namespace perfbench {

namespace {

using phish::TaskId;
using phish::TaskRegistry;
using phish::Value;
using phish::rt::UdpJob;
using phish::rt::UdpJobConfig;
using phish::rt::UdpJobResult;

constexpr int kWorkers = 2;
constexpr int kN = 38;
constexpr std::int64_t kCutoff = 22;
/// A hang costs this long, not the runtime's 120 s default.
constexpr double kWatchdogSeconds = 3.0;
/// A child still running this long after its watchdog should have fired is
/// killed.
constexpr double kChildGraceSeconds = 5.0;

/// What a job's child process reports back through a pipe.
struct ChildReport {
  bool returned = false;  // UdpJob::run returned (no watchdog throw)
  bool correct = false;   // ...with the right answer
  double call_s = 0;      // wall time of the UdpJob::run call
  double elapsed_s = 0;   // UdpJobResult::elapsed_seconds
  std::uint64_t steal_requests_sent = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t messages_sent = 0;
  char error[120] = {};
};

ChildReport run_job(const TaskRegistry& registry, TaskId root,
                    const UdpJobConfig& config) {
  ChildReport r;
  UdpJob job(registry, config);
  UdpJobResult result;
  const double t0 = now_s();
  try {
    result = job.run(root, {Value(std::int64_t{kN})});
  } catch (const std::exception& e) {
    std::snprintf(r.error, sizeof r.error, "%s", e.what());
    return r;
  }
  r.call_s = now_s() - t0;
  r.returned = true;
  r.correct = result.value.kind() == Value::Kind::kInt &&
              result.value.as_int() == fib_reference(kN);
  r.elapsed_s = result.elapsed_seconds;
  r.steal_requests_sent = result.aggregate.steal_requests_sent;
  r.failed_steals = result.aggregate.failed_steals;
  r.messages_sent = result.messages_sent;
  return r;
}

}  // namespace

UdpProbe probe_udp_jobs(SpanRecorder& spans, std::uint64_t seed, int jobs,
                        Outcome& out) {
  TaskRegistry registry;
  const TaskId root = phish::apps::register_fib(registry, kCutoff);
  std::uint64_t steals = 0, failed_steals = 0, datagrams = 0;
  std::vector<double> result_s, lifecycle_s;
  for (int i = 0; i < jobs; ++i) {
    const auto job = static_cast<std::uint64_t>(i) + 1;
    UdpJobConfig config;
    config.workers = kWorkers;
    config.net.base_port = 0;  // ephemeral: the kernel picks free ports
    config.timeout_seconds = kWatchdogSeconds;
    config.seed = seed * 0x9e3779b97f4a7c15ULL + job;
    ++out.attempted;
    if (past_run_budget()) {
      ++out.failed;
      continue;
    }
    std::string why;
    auto span = spans.open("runtime.udp.run", job);
    const auto r = in_child<ChildReport>(
        kWatchdogSeconds + kChildGraceSeconds,
        [&] { return run_job(registry, root, config); }, why);
    span.close();
    if (!r || !r->returned) {
      ++out.failed;
      out.note("UdpJob::run failed: " + (r ? std::string(r->error) : why));
      continue;
    }
    if (!r->correct) {
      ++out.failed;
      out.fail_check("wrong answer from UdpJob::run");
      continue;
    }
    result_s.push_back(r->elapsed_s);
    lifecycle_s.push_back(r->call_s - r->elapsed_s);
    steals += r->steal_requests_sent;
    failed_steals += r->failed_steals;
    datagrams += r->messages_sent;
  }
  const auto done = static_cast<double>(result_s.size());
  UdpProbe probe;
  probe.result_s_p50 = median(result_s);
  probe.lifecycle_s_p50 = median(lifecycle_s);
  probe.steal_requests_per_job = ratio(static_cast<double>(steals), done);
  probe.steal_success_ratio = steal_success_ratio(steals, failed_steals);
  probe.datagrams_per_job = ratio(static_cast<double>(datagrams), done);
  return probe;
}

}  // namespace perfbench
