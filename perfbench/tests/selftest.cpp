// Self-test of the benchmark's own arithmetic: percentiles and the tail
// rule, span self time (overlapping children counted once), and the ratio
// helpers.  Exits non-zero if any expectation fails; run.py runs it after
// every build, before any workload.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/measure.hpp"
#include "harness/spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  // Descending, so the functions under test cannot rely on sorted input.
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void test_percentiles() {
  using perfbench::percentile;
  EXPECT(percentile({}, 50) == 0);
  EXPECT(percentile({7}, 50) == 7);
  EXPECT(percentile({7}, 99) == 7);
  EXPECT(percentile(one_to(10), 50) == 5);  // lower median
  EXPECT(percentile(one_to(11), 50) == 6);
  EXPECT(percentile(one_to(100), 90) == 90);
  EXPECT(percentile(one_to(100), 99) == 99);
  EXPECT(percentile(one_to(100), 100) == 100);
  EXPECT(percentile(one_to(200), 95) == 190);  // exact multiple: no off-by-one
  EXPECT(percentile(one_to(3), 75) == 3);      // ceil(2.25) = 3
  EXPECT(perfbench::median(one_to(4)) == 2);
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::select_tail;
  EXPECT(samples_beyond(100, 90) == 10);
  EXPECT(samples_beyond(200, 95) == 10);
  EXPECT(samples_beyond(99, 90) == 9);
  EXPECT(samples_beyond(0, 90) == 0);

  // Too few samples for any rung: no tail, and the run must fail its check.
  const auto none = select_tail(one_to(39));
  EXPECT(!none.ok);
  EXPECT(none.percentile == 0);

  const auto p75 = select_tail(one_to(40));
  EXPECT(p75.ok && p75.percentile == 75 && p75.beyond == 10 && p75.value == 30);
  const auto p90 = select_tail(one_to(100));
  EXPECT(p90.ok && p90.percentile == 90 && p90.beyond == 10 && p90.value == 90);
  const auto p90b = select_tail(one_to(199));  // p95 leaves only 9 beyond
  EXPECT(p90b.percentile == 90 && p90b.beyond == 19);
  const auto p95 = select_tail(one_to(200));
  EXPECT(p95.percentile == 95 && p95.beyond == 10);
  const auto p99 = select_tail(one_to(1000));
  EXPECT(p99.percentile == 99 && p99.beyond == 10 && p99.value == 990);
  // The ladder tops out at p99, however many samples there are.
  const auto big = select_tail(one_to(100000));
  EXPECT(big.percentile == 99 && big.beyond == 1000);
  EXPECT(big.label() == "p99");

  // A constant timing: the tail equals the median, which is allowed.
  const auto flat = select_tail(std::vector<double>(50, 3.0));
  EXPECT(flat.ok && flat.value == 3.0);

  const auto s = perfbench::summarize(one_to(100));
  EXPECT(s.n == 100 && s.p50 == 50 && s.tail.value == 90);

  // A pass's single-precision timings summarize the same way.
  const std::vector<double> wide = one_to(100);
  const auto f = perfbench::summarize(std::vector<float>(wide.begin(), wide.end()));
  EXPECT(f.n == 100 && f.p50 == 50 && f.tail.value == 90);
  EXPECT(perfbench::median(std::vector<float>{3, 1, 2}) == 2);
}

void test_self_time() {
  using perfbench::covered_ns;
  using perfbench::Span;
  // Overlapping children count once; a child running past its parent's
  // end is clipped.
  EXPECT(covered_ns(0, 100, {{10, 30}, {20, 40}, {90, 120}}) == 40);
  EXPECT(covered_ns(0, 100, {}) == 0);
  EXPECT(covered_ns(0, 100, {{10, 20}, {10, 20}}) == 10);    // duplicates
  EXPECT(covered_ns(0, 100, {{10, 80}, {20, 30}}) == 70);    // nested
  EXPECT(covered_ns(50, 100, {{0, 60}, {200, 300}}) == 10);  // outside

  auto span = [](std::uint32_t id, std::uint32_t parent, const char* name,
                 std::uint64_t start, std::uint64_t end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    return s;
  };
  // job [0,100] has two overlapping client calls and a grandchild; the
  // grandchild is subtracted from its own parent only.
  const std::vector<Span> spans = {
      span(1, 0, "job", 0, 100),
      span(2, 1, "call", 10, 40),
      span(3, 1, "call", 30, 60),
      span(4, 2, "codec", 15, 25),
  };
  const auto self = perfbench::self_times(spans);
  auto find = [&](const char* name) {
    for (const auto& t : self) {
      if (t.name == name) return t;
    }
    return perfbench::SelfTime{};
  };
  EXPECT(find("job").self_ns == 50);     // 100 - union(10..60)
  EXPECT(find("job").total_ns == 100);
  EXPECT(find("call").spans == 2);
  EXPECT(find("call").total_ns == 60);
  EXPECT(find("call").self_ns == 50);    // (30 - 10) + 30
  EXPECT(find("codec").self_ns == 10);
  EXPECT(self.front().name == "job" || self.front().name == "call");
}

void test_recorder() {
  perfbench::SpanRecorder off(false);
  { auto s = off.open("x"); }
  EXPECT(off.finished().empty());

  perfbench::SpanRecorder rec(true);
  std::uint32_t outer_id = 0;
  {
    auto outer = rec.open("outer", 7);
    outer_id = outer.id();
    { auto inner = rec.open("inner", 7, 3); }
    std::thread([&] { auto t = rec.open_under(outer_id, "remote"); }).join();
  }
  const auto spans = rec.finished();
  EXPECT(spans.size() == 3);
  if (spans.size() == 3) {
    EXPECT(spans[0].name == "outer" && spans[0].parent == 0 && spans[0].job == 7);
    EXPECT(spans[1].name == "inner" && spans[1].parent == outer_id &&
           spans[1].items == 3);
    EXPECT(spans[2].name == "remote" && spans[2].parent == outer_id);
    EXPECT(spans[1].start_ns >= spans[0].start_ns &&
           spans[1].end_ns <= spans[0].end_ns);
  }
  // After the outer span closed, a new span is a root again.
  { auto again = rec.open("again"); }
  EXPECT(rec.finished().back().parent == 0);
}

void test_ratios() {
  using perfbench::ratio;
  using perfbench::steal_success_ratio;
  EXPECT(ratio(1, 0) == 0);
  EXPECT(near(ratio(3, 4), 0.75));
  EXPECT(near(steal_success_ratio(10, 4), 0.6));
  EXPECT(steal_success_ratio(0, 0) == 0);
  EXPECT(steal_success_ratio(5, 7) == 0);  // never negative
  EXPECT(steal_success_ratio(5, 0) == 1);
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_self_time();
  test_recorder();
  test_ratios();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
