// Layer probes of the traced run: each times one module through its own
// public call, under a span named after that module.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/task_registry.hpp"
#include "harness/spans.hpp"
#include "runtime/threads/threads_runtime.hpp"

namespace perfbench {

/// core: LocalRunner::run over `args` (one root per arg), `reps` times;
/// the median over reps of wall ns per executed task.
double probe_local_ns_per_task(
    SpanRecorder& spans,
    const std::function<phish::TaskId(phish::TaskRegistry&)>& register_app,
    const std::vector<std::int64_t>& args, int reps);

/// runtime/threads: median wall time of ThreadsRuntime::run on fib(1), a
/// one-task job, with the workload's runtime configuration.
double probe_threads_dispatch(SpanRecorder& spans,
                              const phish::rt::ThreadsConfig& config,
                              int reps);

/// apps: median wall time of one call of the best serial code.
double probe_serial(SpanRecorder& spans, const std::function<void()>& serial,
                    int reps);

/// runtime/udp: `jobs` closed-loop UdpJob::run calls of fib(38) with
/// sequential cutoff 22 at P=2 on loopback, each in a child process, with a
/// 3 s watchdog.  Every job is one operation in `out`; a watchdog throw, a
/// dead job process or a wrong answer is a failed one.  Medians and
/// per-job ratios are over the jobs that returned.
struct UdpProbe {
  double result_s_p50 = 0;     // UdpJobResult::elapsed_seconds
  double lifecycle_s_p50 = 0;  // call wall time minus result_s
  double steal_requests_per_job = 0;
  double steal_success_ratio = 0;
  double datagrams_per_job = 0;
};
struct Outcome;
UdpProbe probe_udp_jobs(SpanRecorder& spans, std::uint64_t seed, int jobs,
                        Outcome& out);

/// net: RpcNode::call round trips between two nodes over UdpNetwork.
struct RttProbe {
  double p50_us = 0;
  double tail_us = 0;
  bool ok = false;  // every call completed and the tail rule held
};
RttProbe probe_rpc_rtt(SpanRecorder& spans, int calls);

/// serial: per-call cost of the wire codec, median over batches.
struct CodecProbe {
  double closure_encode_ns = 0;
  double closure_decode_ns = 0;
  double argument_roundtrip_ns = 0;
  bool ok = false;  // every decode gave back what was encoded
};
CodecProbe probe_codec(SpanRecorder& spans, int batches, int per_batch);

}  // namespace perfbench
