// Spans the benchmark records around its own calls into the program.
//
// A span has a name (the module boundary it brackets), start and end on the
// steady clock, the span that was open around it (its parent), the job it
// belongs to, and the number of calls it covers (batched micro-probes time
// many calls under one span).  Spans are kept in memory and written once,
// when the run ends.  A disabled recorder records nothing, so the timed
// runs pay one branch per call.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: a root span
  std::string name;
  std::uint64_t job = 0;     // 0: not tied to one job
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  // 0 while open
  std::uint64_t items = 1;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::uint32_t id)
        : recorder_(recorder), id_(id) {}
    ~Scope() { close(); }
    Scope(Scope&& other) noexcept
        : recorder_(other.recorder_), id_(other.id_) {
      other.recorder_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;

    std::uint32_t id() const noexcept { return id_; }
    void close();

   private:
    SpanRecorder* recorder_;
    std::uint32_t id_;
  };

  /// Open a span whose parent is the innermost span open on this thread.
  Scope open(const std::string& name, std::uint64_t job = 0,
             std::uint64_t items = 1);
  /// Open a span under an explicit parent (a thread's first span, whose
  /// parent was opened on another thread).
  Scope open_under(std::uint32_t parent, const std::string& name,
                   std::uint64_t job = 0, std::uint64_t items = 1);

  /// Finished spans, in the order they were opened.
  std::vector<Span> finished() const;

 private:
  std::uint32_t begin(std::uint32_t parent, const std::string& name,
                      std::uint64_t job, std::uint64_t items);
  void end(std::uint32_t id);

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index == id - 1
};

/// Total length of the union of `intervals` clipped to [start, end):
/// overlapping intervals are counted once.
std::uint64_t covered_ns(std::uint64_t start, std::uint64_t end,
                         std::vector<std::pair<std::uint64_t, std::uint64_t>>
                             intervals);

/// Self time of one span name: every span's duration minus the part of it
/// that its child spans cover, summed over the spans of that name.
struct SelfTime {
  std::string name;
  std::uint64_t spans = 0;
  std::uint64_t items = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Write spans plus their self-time table as one JSON document.
bool write_span_file(const std::string& path, const std::vector<Span>& spans,
                     const std::vector<SelfTime>& self);

}  // namespace perfbench
