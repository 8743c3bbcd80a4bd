// fib-fine: closed-loop fib(30) jobs with no sequential cutoff through
// ThreadsRuntime::run, one job in flight, P=4.
#include <memory>
#include <optional>

#include "apps/apps.hpp"
#include "harness/bench.hpp"
#include "harness/probes.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/threads/threads_runtime.hpp"

namespace perfbench {

namespace {

using phish::TaskId;
using phish::TaskRegistry;
using phish::Value;
using phish::WorkerStats;
using phish::rt::ThreadsConfig;
using phish::rt::ThreadsRunResult;
using phish::rt::ThreadsRuntime;

constexpr int kWorkers = 4;
constexpr int kStandups = 7;
constexpr int kN = 30;
constexpr std::int64_t kCutoff = 0;      // every task is pure scheduling
constexpr double kNominalJobsPerS = 16;  // sets the fixed job count
constexpr int kSerialReps = 21;
constexpr int kUdpProbeJobs = 12;
constexpr const char* kInput = "fib(30) sequential_cutoff=0";

TaskId register_app(TaskRegistry& registry) {
  return phish::apps::register_fib(registry, kCutoff);
}

/// One stood-up runtime; registry first so it outlives the runtime.
struct Stood {
  std::unique_ptr<TaskRegistry> registry;
  TaskId root{};
  std::unique_ptr<ThreadsRuntime> runtime;
};

Stood stand_up(const ThreadsConfig& config) {
  Stood s;
  s.registry = std::make_unique<TaskRegistry>();
  s.root = register_app(*s.registry);
  s.runtime = std::make_unique<ThreadsRuntime>(*s.registry, config);
  return s;
}

/// Run one job; false (and a counted failure) on a throw or wrong answer.
bool run_checked(Stood& s, Outcome& out, ThreadsRunResult& result) {
  try {
    result = s.runtime->run(s.root, {Value(std::int64_t{kN})});
  } catch (const std::exception& e) {
    out.note(std::string("job threw: ") + e.what());
    return false;
  }
  if (result.value.kind() != Value::Kind::kInt ||
      result.value.as_int() != fib_reference(kN)) {
    out.fail_check("wrong answer from ThreadsRuntime::run");
    return false;
  }
  return true;
}

/// A closed-loop pass of `jobs` jobs; `each` sees every successful result.
JobSamples run_pass(Stood& s, Outcome& out, std::size_t jobs,
                    SpanRecorder* spans,
                    const std::function<void(const ThreadsRunResult&)>& each) {
  JobSamples pass(jobs);
  const double start = now_s();
  for (std::size_t i = 0; i < jobs; ++i) {
    if (past_run_budget()) {
      pass.add_failed();
      continue;
    }
    ThreadsRunResult result;
    std::optional<SpanRecorder::Scope> span;
    if (spans != nullptr) span.emplace(spans->open("runtime.threads.run", i + 1));
    const double t0 = now_s();
    const bool ok = run_checked(s, out, result);
    const double job = now_s() - t0;
    span.reset();
    if (!ok) {
      pass.add_failed();
      continue;
    }
    pass.add(job, job - result.elapsed_seconds);
    if (each) each(result);
  }
  pass.window_s = now_s() - start;
  return pass;
}

}  // namespace

Outcome run_fib_fine(const Options& opt, SpanRecorder& spans) {
  Outcome out;
  ThreadsConfig config;
  config.workers = kWorkers;
  config.seed = opt.seed * 0x9e3779b97f4a7c15ULL + 1;

  // Setup: the median of several cold stand-ups, each ending with one
  // checked warm-up job.  Then this process stands up the runtime its timed
  // jobs use, warmed up the same way.
  const double setup_s = cold_setup_s(kStandups, 120, spans, out, [&] {
    Standup s;
    const double t0 = now_s();
    Stood fresh = stand_up(config);
    ThreadsRunResult warm;
    Outcome checks;
    const bool ok = run_checked(fresh, checks, warm);
    s.seconds = now_s() - t0;
    s.attempted = 1;
    s.failed = ok ? 0 : 1;
    s.wrong = !checks.correct;
    return s;
  });
  Stood stood = stand_up(config);
  {
    ThreadsRunResult warm;
    ++out.attempted;
    if (!run_checked(stood, out, warm)) ++out.failed;
  }

  if (!opt.trace) {
    const std::size_t jobs = job_count(opt.seconds, kNominalJobsPerS, 50);
    out.note(provenance(opt, kWorkers, kInput, jobs));
    const JobSamples pass = run_pass(stood, out, jobs, nullptr, {});
    report_end_to_end(out, setup_s, pass);
    return out;
  }

  // Traced run.  Pass A: untraced reference; pass B: benchmark spans, whose
  // WorkerStats give the counters; pass C: the program's obs::Tracer.  Then
  // the layer probes, among them those of the layers no timed workload
  // runs: runtime/udp (with the Clearinghouse), net and serial.
  const std::size_t jobs_a = job_count(opt.seconds * 0.35, kNominalJobsPerS, 20);
  const std::size_t jobs_b = jobs_a;
  const std::size_t jobs_c = job_count(opt.seconds * 0.1, kNominalJobsPerS, 10);
  out.note(provenance(opt, kWorkers, kInput, jobs_a + jobs_b + jobs_c));

  JobSamples pass_a;
  {
    auto span = spans.open("pass.untraced");
    pass_a = run_pass(stood, out, jobs_a, nullptr, {});
  }

  auto& steal_latency =
      phish::obs::Registry::global().histogram("steal.latency_ns");
  steal_latency.reset();
  std::vector<double> max_in_use;
  WorkerStats total;
  JobSamples pass_b;
  {
    auto span = spans.open("pass.spans");
    pass_b = run_pass(stood, out, jobs_b, &spans,
                      [&](const ThreadsRunResult& r) {
                        total.merge(r.aggregate);
                        max_in_use.push_back(
                            static_cast<double>(r.aggregate.max_tasks_in_use));
                      });
  }
  const auto latency = steal_latency.summarize();

  JobSamples pass_c;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  {
    auto span = spans.open("pass.obs_tracer");
    phish::obs::Tracer tracer;
    ThreadsConfig traced = config;
    traced.tracer = &tracer;
    Stood with_tracer = stand_up(traced);
    ThreadsRunResult warm;
    run_checked(with_tracer, out, warm);
    tracer.collect();
    pass_c = run_pass(with_tracer, out, jobs_c, nullptr,
                      [&](const ThreadsRunResult&) {
                        events += tracer.collect().size();
                      });
    dropped = tracer.total_dropped();
  }
  for (const JobSamples* p : {&pass_a, &pass_b, &pass_c}) out.count(*p);
  // The UdpJob probe forks, so no runtime threads may be left running.
  stood.runtime.reset();

  const double done = static_cast<double>(pass_b.job_s.size());
  const double job_p50 = median(pass_a.job_s);
  out.set("core.tasks_per_job", ratio(total.tasks_executed, done));
  out.set("core.max_tasks_in_use", median(max_in_use));
  out.set("core.non_local_synchs_per_job", ratio(total.non_local_synchs, done));
  out.set("runtime.threads.steal_requests_per_job",
          ratio(total.steal_requests_sent, done));
  out.set("runtime.threads.steal_success_ratio",
          steal_success_ratio(total.steal_requests_sent, total.failed_steals));
  out.set("runtime.threads.tasks_stolen_per_job",
          ratio(total.tasks_stolen_by_me, done));
  out.set("runtime.threads.steal_latency_ns_p50",
          static_cast<double>(latency.quantile(0.5)));

  out.set("core.local_ns_per_task",
          probe_local_ns_per_task(spans, register_app, {kN}, 5));
  out.set("runtime.threads.dispatch_s_p50",
          probe_threads_dispatch(spans, config, 200));
  const double serial_s = probe_serial(
      spans,
      [] {
        volatile std::int64_t sink = phish::apps::fib_serial(kN);
        (void)sink;
      },
      kSerialReps);
  out.set("apps.serial_s", serial_s);
  out.set("apps.speedup", ratio(serial_s, job_p50));

  const UdpProbe udp = probe_udp_jobs(spans, opt.seed, kUdpProbeJobs, out);
  out.set("runtime.udp.result_s_p50", udp.result_s_p50);
  out.set("runtime.udp.lifecycle_s_p50", udp.lifecycle_s_p50);
  out.set("runtime.udp.steal_requests_per_job", udp.steal_requests_per_job);
  out.set("runtime.udp.steal_success_ratio", udp.steal_success_ratio);
  out.set("runtime.udp.datagrams_per_job", udp.datagrams_per_job);
  const RttProbe rtt = probe_rpc_rtt(spans, 2000);
  if (!rtt.ok) out.fail_check("RpcNode::call probe lost a call or its tail");
  out.set("net.rpc_rtt_us_p50", rtt.p50_us);
  out.set("net.rpc_rtt_us_tail", rtt.tail_us);
  const CodecProbe codec = probe_codec(spans, 20, 5000);
  if (!codec.ok) out.fail_check("codec probe did not round-trip");
  out.set("serial.closure_encode_ns", codec.closure_encode_ns);
  out.set("serial.closure_decode_ns", codec.closure_decode_ns);
  out.set("serial.argument_roundtrip_ns", codec.argument_roundtrip_ns);
  report_trace_overhead(out, job_p50, median(pass_c.job_s),
                        ratio(static_cast<double>(events),
                              static_cast<double>(pass_c.job_s.size())),
                        dropped);
  out.note(describe("untraced job_s", summarize(pass_a.job_s)));
  out.note(describe("spans job_s", summarize(pass_b.job_s)));
  out.note(describe("obs-tracer job_s", summarize(pass_c.job_s)));
  return out;
}

}  // namespace perfbench
