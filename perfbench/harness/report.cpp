#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "harness/bench.hpp"
#include "harness/child.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void JobSamples::add_failed() {
  ++failed;
  add(std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity());
}

namespace {
const double process_start_s = now_s();
}  // namespace

bool past_run_budget() { return now_s() - process_start_s > kRunBudgetS; }

void Outcome::fail_check(const std::string& why) {
  correct = false;
  note("CHECK FAILED: " + why);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},       {"job_s_p50", "s"},     {"job_s_tail", "s"},
      {"jobs_per_s", "1/s"},  {"submit_s_p50", "s"},  {"submit_s_tail", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.tasks_per_job", "count"},
      {"core.local_ns_per_task", "ns"},
      {"core.max_tasks_in_use", "count"},
      {"core.non_local_synchs_per_job", "count"},
      {"runtime.threads.steal_requests_per_job", "count"},
      {"runtime.threads.steal_success_ratio", "ratio"},
      {"runtime.threads.tasks_stolen_per_job", "count"},
      {"runtime.threads.steal_latency_ns_p50", "ns"},
      {"runtime.threads.dispatch_s_p50", "s"},
      {"apps.serial_s", "s"},
      {"apps.speedup", "x"},
      {"runtime.udp.result_s_p50", "s"},
      {"runtime.udp.lifecycle_s_p50", "s"},
      {"runtime.udp.steal_requests_per_job", "count"},
      {"runtime.udp.steal_success_ratio", "ratio"},
      {"runtime.udp.datagrams_per_job", "count"},
      {"net.rpc_rtt_us_p50", "us"},
      {"net.rpc_rtt_us_tail", "us"},
      {"serial.closure_encode_ns", "ns"},
      {"serial.closure_decode_ns", "ns"},
      {"serial.argument_roundtrip_ns", "ns"},
      {"jobsvc.submit_direct_us_p50", "us"},
      {"jobsvc.json_parse_us_p50", "us"},
      {"jobsvc.http_us_p50", "us"},
      {"jobsvc.queue_wait_us_p50", "us"},
      {"jobsvc.first_task_us_p50", "us"},
      {"jobsvc.turnaround_us_p50", "us"},
      {"jobsvc.polls_per_job", "count"},
      {"jobsvc.rejected", "count"},
      {"obs.trace_overhead", "x"},
      {"obs.events_per_job", "count"},
      {"obs.dropped_events", "count"},
  };
  return names;
}

std::int64_t fib_reference(int n) {
  std::int64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

double peak_rss_mib() {
  // VmHWM is this process image's own high-water mark; getrusage's
  // RUSAGE_SELF would also carry the peak of whatever exec'd it.  The
  // forked stand-ups are not counted: each runs a subset of what this
  // process runs.
  long self_kib = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kib = std::atol(line.c_str() + 6);
  }
  return static_cast<double>(self_kib) / 1024.0;
}

double cold_setup_s(int standups, double timeout_s, SpanRecorder& spans,
                    Outcome& out, const std::function<Standup()>& standup) {
  auto setup_span = spans.open("setup");
  std::vector<double> samples;
  for (int i = 0; i < standups; ++i) {
    // Back to back, each stand-up ran in the wake of the last one, and
    // jobd-http's setup_s (about 1 ms) spread 0.19-0.32 from run to run;
    // with this pause, 0.06-0.11.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    auto span = spans.open("setup.standup");
    std::string why;
    const auto s = in_child<Standup>(timeout_s, standup, why);
    if (!s) {
      ++out.attempted;
      ++out.failed;
      out.note("stand-up failed: " + why);
      continue;
    }
    out.attempted += s->attempted;
    out.failed += s->failed;
    if (s->wrong) out.fail_check("a warm-up job returned a wrong answer");
    if (s->why[0] != '\0') out.note(std::string("stand-up: ") + s->why);
    samples.push_back(s->seconds);
  }
  if (samples.empty()) out.fail_check("no stand-up completed");
  return median(samples);
}

std::string describe(const std::string& name, const Summary& s) {
  char buf[256];
  if (s.tail.percentile == 0) {
    std::snprintf(buf, sizeof buf,
                  "%s: n=%zu p50=%.6g s, no tail (too few samples)",
                  name.c_str(), s.n, s.p50);
  } else {
    std::snprintf(buf, sizeof buf,
                  "%s: n=%zu p50=%.6g s, tail %s=%.6g s (%zu beyond)",
                  name.c_str(), s.n, s.p50, s.tail.label().c_str(),
                  s.tail.value, s.tail.beyond);
  }
  return buf;
}

void report_end_to_end(Outcome& out, double setup_s, const JobSamples& pass) {
  // Read before the summaries below copy the samples.
  out.set("peak_rss_mb", peak_rss_mib());
  char bytes[96];
  std::snprintf(bytes, sizeof bytes,
                "per-job timings held by the harness: %.1f KiB",
                static_cast<double>(pass.bytes()) / 1024.0);
  out.note(bytes);
  out.count(pass);
  const Summary job = summarize(pass.job_s);
  const Summary submit = summarize(pass.submit_s);
  for (const auto& [name, s] : {std::pair<std::string, Summary>{"job_s", job},
                                {"submit_s", submit}}) {
    out.note(describe(name, s));
    if (!s.tail.ok) {
      out.fail_check(name + " tail: " + std::to_string(s.n) +
                     " samples leave fewer than 10 beyond any ladder "
                     "percentile, or the tail reads below the median");
    }
    if (!std::isfinite(s.p50) || !std::isfinite(s.tail.value)) {
      out.fail_check(name + ": so many jobs failed that the median or the "
                     "tail is a failed job");
    }
  }
  const auto completed = static_cast<double>(pass.attempted - pass.failed);
  out.set("setup_s", setup_s);
  out.set("job_s_p50", job.p50);
  out.set("job_s_tail", job.tail.value);
  out.set("jobs_per_s", ratio(completed, pass.window_s));
  out.set("submit_s_p50", submit.p50);
  out.set("submit_s_tail", submit.tail.value);
}

std::size_t job_count(double seconds, double nominal_jobs_per_s,
                      std::size_t minimum) {
  const auto n = static_cast<std::size_t>(std::llround(seconds *
                                                       nominal_jobs_per_s));
  return std::max(n, minimum);
}

void report_trace_overhead(Outcome& out, double untraced_p50,
                           double traced_p50, double events_per_job,
                           std::uint64_t dropped) {
  out.set("obs.trace_overhead", ratio(traced_p50, untraced_p50));
  out.set("obs.events_per_job", events_per_job);
  out.set("obs.dropped_events", static_cast<double>(dropped));
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string provenance(const Options& opt, int workers,
                       const std::string& input, std::size_t jobs) {
  const char* revision = std::getenv("PERFBENCH_REVISION");
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "provenance: workload=%s seed=%llu trace=%d seconds=%g "
                "nproc=%u cpu=\"%s\" build=%s revision=%s P=%d input=\"%s\" "
                "jobs=%zu",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                opt.seconds, std::thread::hardware_concurrency(),
                cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
                revision != nullptr ? revision : "unknown", workers,
                input.c_str(), jobs);
  return buf;
}

}  // namespace perfbench
