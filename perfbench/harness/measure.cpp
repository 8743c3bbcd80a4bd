#include "harness/measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// ceil(p/100 * n) without floating-point surprises at exact multiples
// (p = 95, n = 200 must give 190, not 191).
std::size_t rank_of(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const double rounded = std::round(exact);
  const double r = std::fabs(exact - rounded) < 1e-9 ? rounded
                                                     : std::ceil(exact);
  return std::min(n, static_cast<std::size_t>(std::max(1.0, r)));
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = rank_of(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

const std::vector<double>& tail_ladder() {
  static const std::vector<double> ladder = {75, 90, 95, 99};
  return ladder;
}

std::string Tail::label() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", percentile);
  return buf;
}

Tail select_tail(const std::vector<double>& samples) {
  Tail tail;
  for (const double p : tail_ladder()) {
    const std::size_t beyond = samples_beyond(samples.size(), p);
    if (beyond < Tail::kMinBeyond) break;
    tail.percentile = p;
    tail.beyond = beyond;
  }
  if (tail.percentile == 0) return tail;
  tail.value = percentile(samples, tail.percentile);
  tail.ok = tail.value >= median(samples);
  return tail;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.tail = select_tail(samples);
  return s;
}

Summary summarize(const std::vector<float>& samples) {
  return summarize(std::vector<double>(samples.begin(), samples.end()));
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double steal_success_ratio(std::uint64_t sent, std::uint64_t failed) {
  if (sent == 0) return 0.0;
  const std::uint64_t won = failed >= sent ? 0 : sent - failed;
  return static_cast<double>(won) / static_cast<double>(sent);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50);
}

double median(const std::vector<float>& values) {
  return percentile(std::vector<double>(values.begin(), values.end()), 50);
}

}  // namespace perfbench
