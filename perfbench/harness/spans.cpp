#include "harness/spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Spans open on this thread, innermost last.
thread_local std::vector<std::uint32_t> open_stack;

}  // namespace

void SpanRecorder::Scope::close() {
  if (recorder_ == nullptr) return;
  recorder_->end(id_);
  recorder_ = nullptr;
}

SpanRecorder::Scope SpanRecorder::open(const std::string& name,
                                       std::uint64_t job,
                                       std::uint64_t items) {
  const std::uint32_t parent = open_stack.empty() ? 0 : open_stack.back();
  return open_under(parent, name, job, items);
}

SpanRecorder::Scope SpanRecorder::open_under(std::uint32_t parent,
                                             const std::string& name,
                                             std::uint64_t job,
                                             std::uint64_t items) {
  if (!enabled_) return Scope(nullptr, 0);
  return Scope(this, begin(parent, name, job, items));
}

std::uint32_t SpanRecorder::begin(std::uint32_t parent,
                                  const std::string& name, std::uint64_t job,
                                  std::uint64_t items) {
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.job = job;
    span.items = items;
    id = span.id;
    spans_.push_back(std::move(span));
  }
  open_stack.push_back(id);
  // Read the clock last, so the bookkeeping above is not inside the span.
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].start_ns = start;
  return id;
}

void SpanRecorder::end(std::uint32_t id) {
  const std::uint64_t end = now_ns();
  auto it = std::find(open_stack.rbegin(), open_stack.rend(), id);
  if (it != open_stack.rend()) open_stack.erase(std::next(it).base());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = std::max(end, spans_[id - 1].start_ns);
}

std::vector<Span> SpanRecorder::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const Span& s : spans_) {
    if (s.end_ns != 0) out.push_back(s);
  }
  return out;
}

std::uint64_t covered_ns(
    std::uint64_t start, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = start;  // everything before reach is counted
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    covered += hi - lo;
    reach = hi;
  }
  return covered;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    const std::uint64_t total = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    const std::uint64_t covered =
        it == children.end() ? 0 : covered_ns(s.start_ns, s.end_ns, it->second);
    ++t.spans;
    t.items += s.items;
    t.total_ns += total;
    t.self_ns += total - covered;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

bool write_span_file(const std::string& path, const std::vector<Span>& spans,
                     const std::vector<SelfTime>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One array per span, times relative to t0_ns, to keep a run's hundreds
  // of thousands of spans small.  Span names are fixed identifiers chosen by
  // the benchmark: no escaping.
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f,
               "{\"t0_ns\": %llu,\n\"fields\": [\"id\", \"parent\", "
               "\"name\", \"job\", \"start_ns\", \"end_ns\", \"items\"],\n"
               "\"spans\": [\n",
               static_cast<unsigned long long>(t0));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[%u,%u,\"%s\",%llu,%llu,%llu,%llu]%s\n", s.id, s.parent,
                 s.name.c_str(), static_cast<unsigned long long>(s.job),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 static_cast<unsigned long long>(s.items),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_time\": [\n");
  for (std::size_t i = 0; i < self.size(); ++i) {
    const SelfTime& t = self[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"spans\": %llu, \"items\": %llu, "
                 "\"total_ns\": %llu, \"self_ns\": %llu}%s\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.spans),
                 static_cast<unsigned long long>(t.items),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.self_ns),
                 i + 1 < self.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
