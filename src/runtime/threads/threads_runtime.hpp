// Shared-memory threads runtime.
//
// Runs one WorkerCore per std::thread with direct (in-memory) argument
// delivery and direct steals — a *static* processor set, like the Strata
// scheduling library on the CM-5 that Phish was designed to mirror.  Table 1
// uses this runtime in two modes:
//
//   * static mode (default): the Strata analog — no network polling, no
//     dynamic-membership bookkeeping.
//   * phish_overheads mode: the same scheduler additionally pays, per task,
//     the obligations the paper blames for Phish's extra serial slowdown —
//     a real non-blocking poll of a UDP socket (split-phase message check)
//     and a dynamic-processor-set membership check.
//
// Synchronization design: each worker's WorkerCore is guarded by one mutex,
// held while popping and executing tasks (execution mutates the core through
// Context).  Cross-worker traffic never takes two core locks at once:
// argument sends go through a per-worker inbox with its own lock, and steals
// take only the victim's core lock.  This keeps the locking dead-simple and
// provably deadlock-free; contention is negligible because steals and
// non-local sends are rare by design (that is the paper's whole point).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/local_runner.hpp"
#include "core/worker_core.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/rng.hpp"

namespace phish::rt {

struct ThreadsConfig {
  int workers = 1;
  ExecOrder exec_order = ExecOrder::kLifo;
  StealOrder steal_order = StealOrder::kFifo;
  std::uint64_t seed = 0x5eed'0000'0010ULL;
  /// Pay Phish's per-task overheads (see file comment).  Table 1's second
  /// column.
  bool phish_overheads = false;
  /// phish_overheads: execute this many tasks between split-phase network
  /// polls (the real non-blocking recv syscall).  1 reproduces the 1994
  /// per-task poll; the default amortizes the syscall the way a modern
  /// split-phase scheduler would, while the per-task membership check (an
  /// atomic load) is still paid on every task.
  int poll_period = 128;
  /// Most tasks a single steal takes from a victim (steal-half, capped).
  /// 1 reproduces classic steal-one.
  int steal_batch = 8;
  /// Consecutive empty scheduling rounds (own queue, inbox, and a failed
  /// steal) after which a worker naps briefly instead of spinning.
  int spin_rounds_before_yield = 64;
  /// Optional event tracer (wall-clock domain).  Worker i writes to
  /// tracer->shard(i); null disables tracing entirely.
  obs::Tracer* tracer = nullptr;
};

struct ThreadsRunResult {
  Value value;
  double elapsed_seconds = 0.0;
  WorkerStats aggregate;                // merged per the paper's conventions
  std::vector<WorkerStats> per_worker;
};

class ThreadsRuntime {
 public:
  ThreadsRuntime(const TaskRegistry& registry, ThreadsConfig config);
  ~ThreadsRuntime();

  ThreadsRuntime(const ThreadsRuntime&) = delete;
  ThreadsRuntime& operator=(const ThreadsRuntime&) = delete;

  /// Execute root(args...) across the configured workers and return the
  /// result with timing and scheduling statistics.  Reusable: each call is
  /// an independent job.
  ThreadsRunResult run(TaskId root, std::vector<Value> args);
  ThreadsRunResult run(const std::string& root, std::vector<Value> args);

 private:
  struct InboxMessage {
    ContRef cont;
    Value value;
  };

  struct Worker {
    std::mutex core_mutex;
    std::unique_ptr<WorkerCore> core;  // guarded by core_mutex

    std::mutex inbox_mutex;
    std::vector<InboxMessage> inbox;   // guarded by inbox_mutex
    /// Set (under inbox_mutex) when a message is pushed, cleared when the
    /// inbox is drained.  Lets the hot loop skip the inbox lock entirely on
    /// the overwhelmingly common empty-inbox case.
    std::atomic<bool> inbox_nonempty{false};

    Xoshiro256 rng{0};
    int poll_fd = -1;                  // phish_overheads: real UDP socket
  };

  void worker_loop(int index);
  bool drain_inbox(Worker& w);               // callers hold core_mutex
  bool try_steal_for(int thief_index);
  void deliver(const ContRef& cont, Value value, int sender_index);
  bool quiescent_without_result();

  const TaskRegistry& registry_;
  ThreadsConfig config_;
  /// Resolved from config at construction: lock-free steals in play.
  bool use_lockfree_ = false;
  obs::Histogram& steal_latency_;  // successful-steal latency, global registry
  std::vector<std::unique_ptr<Worker>> workers_;

  // Per-job state.
  std::atomic<bool> done_{false};
  std::atomic<bool> job_active_{false};
  std::atomic<int> idle_workers_{0};
  std::atomic<int> in_transit_{0};  // stolen tasks between victim and thief
  std::atomic<std::uint64_t> membership_epoch_{0};  // phish_overheads check
  std::mutex result_mutex_;
  std::optional<Value> result_;

  // Thread pool control.
  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;
  bool shutdown_ = false;
  std::uint64_t job_generation_ = 0;
  std::vector<std::thread> threads_;
};

}  // namespace phish::rt
