// perfbench: run one workload once and print the result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-file <path>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable provenance, timing summaries and (traced runs) the
// per-module self-time table.  run.py builds this program and calls it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/bench.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--span-file") opt.span_file = value;
    else return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

/// The host's CPU time so far, in clock ticks: (steal, total), from the
/// first line of /proc/stat.
std::pair<double, double> host_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0, total = 0, v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

void print_self_times(const std::vector<perfbench::SelfTime>& self) {
  std::printf("self time by module (span name: spans, calls, total s, self s)\n");
  for (const auto& t : self) {
    std::printf("  %-36s %8llu %10llu %12.6f %12.6f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.spans),
                static_cast<unsigned long long>(t.items), t.total_ns / 1e9,
                t.self_ns / 1e9);
  }
}

std::string result_line(Outcome& out, bool trace) {
  phish::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(out.correct);
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics");
  w.begin_object();
  const auto& names = trace ? perfbench::per_layer_metrics()
                            : perfbench::end_to_end_metrics();
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    // A per-layer metric the workload never set is a layer it does not
    // exercise: it reads 0.  An end-to-end metric is always set.
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    w.key(name);
    w.begin_object();
    w.kv("value", value);
    w.kv("unit", unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-file <path>]\n";
    return 2;
  }
  perfbench::SpanRecorder spans(opt.trace);
  const auto ticks_before = host_cpu_ticks();
  Outcome out;
  {
    auto root = spans.open("workload." + opt.workload);
    if (opt.workload == "fib-fine") out = perfbench::run_fib_fine(opt, spans);
    else if (opt.workload == "jobd-http") out = perfbench::run_jobd_http(opt, spans);
    else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  }
  const auto e2e = perfbench::end_to_end_metrics();
  for (const auto& [name, unit] : e2e) {
    if (!opt.trace && out.metrics.count(name) == 0) {
      out.fail_check("end-to-end metric " + name + " was not measured");
    }
  }
  if (out.attempted == 0) out.fail_check("no operation was attempted");
  const auto ticks_after = host_cpu_ticks();
  // Time the hypervisor took from this VM: runs that read slow often show it.
  out.note("host steal time during the run: " +
           std::to_string(100.0 * perfbench::ratio(
                                      ticks_after.first - ticks_before.first,
                                      ticks_after.second - ticks_before.second)) +
           " %");
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  std::printf("operations: attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct ? "true" : "false");
  if (opt.trace) {
    const auto finished = spans.finished();
    const auto self = perfbench::self_times(finished);
    print_self_times(self);
    if (!opt.span_file.empty()) {
      if (!perfbench::write_span_file(opt.span_file, finished, self)) {
        std::cerr << "perfbench: cannot write " << opt.span_file << "\n";
        return 1;
      }
      std::printf("spans: %zu written to %s\n", finished.size(),
                  opt.span_file.c_str());
    }
  }
  std::printf("%s\n", result_line(out, opt.trace).c_str());
  return 0;
}
