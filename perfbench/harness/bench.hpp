// Shared pieces of the benchmark harness: options, the outcome one
// invocation reports, and the helpers every workload uses to time jobs and
// turn them into the end-to-end metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/measure.hpp"
#include "harness/spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_file;  // traced runs write their spans here
};

/// Per-job samples of one closed-loop pass.  A failed job misses every
/// latency limit: it enters both timings as +infinity, so the sample count,
/// and with it the tail percentile, stays fixed by the job count.  Timings
/// are single precision (seven significant digits) so that a pass of many
/// short jobs adds little to the process's peak_rss_mb.
struct JobSamples {
  std::vector<float> job_s;     // the public call, end to end
  std::vector<float> submit_s;  // the entry point's own part of it
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double window_s = 0;          // wall time of the whole pass

  explicit JobSamples(std::size_t jobs = 0) {
    job_s.reserve(jobs);
    submit_s.reserve(jobs);
  }
  void add(double job, double submit) {
    ++attempted;
    job_s.push_back(static_cast<float>(job));
    submit_s.push_back(static_cast<float>(submit));
  }
  void add_failed();
  /// Bytes the timings hold, reported next to peak_rss_mb.
  std::size_t bytes() const {
    return (job_s.capacity() + submit_s.capacity()) * sizeof(float);
  }
};

/// What one invocation reports: the result line plus the
/// human-readable lines printed before it.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // units: see the tables below
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
  /// Add a pass's operations to the attempted and failed counts.
  void count(const JobSamples& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
  }
  /// A self-check failed: the run reports correct=false and says why.
  void fail_check(const std::string& why);
};

/// The metric names and units of BENCHMARK.json, in its order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True once this process has run for kRunBudgetS.  Passes then stop
/// starting jobs and count the rest as failed, so a program that hangs on
/// every job still yields a result (with its failures) well inside the
/// time a run may take.
constexpr double kRunBudgetS = 150;
bool past_run_budget();

/// fib(n) by iteration: the answer key, independent of the program.
std::int64_t fib_reference(int n);

/// Peak resident set (VmHWM) of this process, in MiB.
double peak_rss_mib();

/// One cold stand-up, as the child process that ran it reports it.
struct Standup {
  double seconds = 0;           // registry, runtime or server, warm-up job
  std::uint64_t attempted = 0;  // operations it ran (warm-up job, connects)
  std::uint64_t failed = 0;
  bool wrong = false;           // the warm-up job returned a wrong answer
  char why[120] = {};           // what failed, if anything did
};

/// setup_s: the median of `standups` cold stand-ups.  Each runs in a child
/// process forked before this process has run any of the program, so every
/// stand-up starts cold: no warm allocator, threads or sockets left by an
/// earlier one.  Each also starts a quarter second after the last one
/// ended, on an idle machine, as a real cold start does.  A child that dies
/// counts as a failed operation.
double cold_setup_s(int standups, double timeout_s, SpanRecorder& spans,
                    Outcome& out, const std::function<Standup()>& standup);

/// Fill the end-to-end metrics from the setup time and a timed pass, and
/// check the tail rule on both timings.
void report_end_to_end(Outcome& out, double setup_s, const JobSamples& pass);

/// One timing summary line ("name: n=.. p50=.. s, tail p95=.. s (k beyond)").
std::string describe(const std::string& name, const Summary& s);

/// Jobs a pass runs: the workload's nominal rate times its share of the
/// run, so the count (and with it the tail percentile) is fixed by
/// --seconds, not by how fast this host happens to be.
std::size_t job_count(double seconds, double nominal_jobs_per_s,
                      std::size_t minimum);

/// Fill the obs.* per-layer metrics of a traced run that attached a tracer.
void report_trace_overhead(Outcome& out, double untraced_p50,
                           double traced_p50, double events_per_job,
                           std::uint64_t dropped);

/// The provenance line every run prints.
std::string provenance(const Options& opt, int workers,
                       const std::string& input, std::size_t jobs);

// The two workloads.
Outcome run_fib_fine(const Options& opt, SpanRecorder& spans);
Outcome run_jobd_http(const Options& opt, SpanRecorder& spans);

}  // namespace perfbench
