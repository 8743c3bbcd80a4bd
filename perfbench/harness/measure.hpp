// The benchmark's own arithmetic: percentiles, the fixed tail rule, and the
// ratio helpers the per-layer metrics are built from.  Pure functions, so
// tests/selftest.cpp can pin them down exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of all samples are at or below it.  `p` in (0, 100].  Returns 0
/// for an empty sample set.
double percentile(std::vector<double> samples, double p);

/// Samples strictly after the nearest-rank position of percentile `p` in a
/// sorted set of `n` samples: n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The percentiles a tail may be reported at, lowest first.
const std::vector<double>& tail_ladder();

/// The tail of one timing: the highest ladder percentile with at least
/// `kMinBeyond` samples beyond it.  `ok` is false when even the lowest
/// ladder rung has too few samples beyond it, or when the tail reads below
/// the median; either makes the run fail its own check.
struct Tail {
  static constexpr std::size_t kMinBeyond = 10;
  double percentile = 0;   // e.g. 95 for p95; 0 when no rung qualifies
  double value = 0;
  std::size_t beyond = 0;  // samples beyond the tail's rank
  bool ok = false;
  std::string label() const;  // "p95"
};
Tail select_tail(const std::vector<double>& samples);

/// Summary of one timing: count, median and tail.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  Tail tail;
};
Summary summarize(const std::vector<double>& samples);
/// The same on single-precision samples (a pass's per-job timings).
Summary summarize(const std::vector<float>& samples);

/// num / den, or 0 when den is 0 (a layer the workload never exercised).
double ratio(double num, double den);

/// Share of steal requests that brought work back: (sent - failed) / sent;
/// 0 when nothing was sent.
double steal_success_ratio(std::uint64_t sent, std::uint64_t failed);

/// Median of `values` (lower median for an even count, as percentile(50)).
double median(const std::vector<double>& values);
double median(const std::vector<float>& values);

}  // namespace perfbench
