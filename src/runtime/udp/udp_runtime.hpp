// The real thing: Phish over UDP/IP sockets on loopback (DESIGN.md §3.3).
//
// Every worker has its own UDP socket and runs the same WorkerNode — the
// worker protocol — as the simulator; the Clearinghouse is an RPC server on
// its own socket.  Each node runs on its socket's event loop (NodeLoop): one
// thread per node, as the paper's single-threaded Phish process.  Only the
// driver differs from the simulator: a real clock instead of simulated time,
// so the protocol the benches measure in simulation is the protocol this
// code ships on real sockets.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/udp_net.hpp"
#include "obs/tracer.hpp"
#include "runtime/node/worker_node.hpp"

namespace phish::rt {

struct UdpJobConfig {
  int workers = 2;
  net::UdpParams net;  // base_port must be free; nodes use base_port + id
  ExecOrder exec_order = ExecOrder::kLifo;
  StealOrder steal_order = StealOrder::kFifo;
  std::uint64_t seed = 0x5eed'0000'0040ULL;
  /// Consecutive failed steals before a worker concludes the parallelism has
  /// shrunk and exits.
  int max_failed_steals = std::numeric_limits<int>::max();
  /// Most tasks one steal RPC may carry back (steal-half, capped); 1 is the
  /// paper's steal-one.
  int steal_batch = 1;
  std::uint64_t heartbeat_period_ns = 500'000'000; // 500 ms
  net::RetryPolicy rpc_policy{100'000'000, 6, 1.5};
  ClearinghouseConfig clearinghouse;
  /// Watchdog: give up if the job has not finished in this much real time.
  double timeout_seconds = 120.0;
  /// Chaos testing: wrap every worker's channel in a FaultyChannel applying
  /// this plan's link rules (drop/duplicate/reorder) to outbound datagrams.
  /// The plan's node events are ignored; script those in node_events.
  std::optional<net::FaultPlan> fault_plan;
  /// Optional event tracer (wall-clock domain).  Worker i writes to
  /// tracer->shard(i + 1) and the primary Clearinghouse's RpcNode to
  /// shard 0, each from its node's loop only.
  obs::Tracer* tracer = nullptr;
  /// Warm-standby Clearinghouse replica on node workers+1 (port
  /// base_port + workers + 1): receives state deltas from the primary and
  /// promotes itself when the primary misses its lease.
  bool enable_backup = false;
  /// Scripted chaos (e.g. a ChurnPlan's events), in wall-clock ns from job
  /// start.  kCrash kills worker `worker` (never 0: it carries the root),
  /// kReclaim evicts it gracefully, kRestart rejoins it as a fresh
  /// incarnation; kCrash of net::kCoordinatorWorker halts the primary (the
  /// job survives that only with enable_backup).  kPartition/kHeal are
  /// ignored: real sockets have no scriptable cut.
  std::vector<net::NodeEvent> node_events;
};

struct UdpJobResult {
  Value value;
  double elapsed_seconds = 0.0;
  WorkerStats aggregate;
  std::vector<WorkerStats> per_worker;
  /// Datagrams sent by the workers (from their channel counters).
  std::uint64_t messages_sent = 0;
  /// Failover / rejoin counters and the last MTTR, when chaos was scripted.
  RecoveryTracker::Snapshot recovery{};
};

/// One worker process-equivalent: a UDP socket and a WorkerNode — the same
/// protocol the simulator runs — driven by the socket's loop.  Only the
/// loop's thread touches the node: datagrams, timers and task batches all
/// run there, and every public call below is posted to it.  A batch polls
/// the socket between tasks and ends when anything waits.  Once the loop
/// has stopped (after join()), a public call runs on the caller's thread.
class UdpWorker final : private WorkerNode::Driver {
 public:
  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.
  UdpWorker(net::UdpNetwork& network, const TaskRegistry& registry,
            net::NodeId me, std::vector<net::NodeId> clearinghouse,
            const UdpJobConfig& config, std::uint64_t seed);
  ~UdpWorker();

  UdpWorker(const UdpWorker&) = delete;
  UdpWorker& operator=(const UdpWorker&) = delete;

  /// Give this worker the job's root task (before start()).
  void set_root(TaskId task, std::vector<Value> args) {
    node_.set_root(task, std::move(args));
  }

  /// MTTR instrumentation: fires on every successful steal (the tracker
  /// ignores steals outside a recovery window).  Before start().
  void set_recovery_tracker(RecoveryTracker* tracker) {
    node_.set_recovery_tracker(tracker);
  }

  /// The node registers with the Clearinghouse.
  void start() { loop_.submit([this] { node_.start(); }); }

  /// Wind down as the shutdown broadcast does (report stats, unregister,
  /// unless crashed or departed).
  void request_stop() { loop_.submit([this] { node_.finish_job(); }); }

  /// Simulate a machine crash: drop all traffic both ways at the RPC layer,
  /// with no unregister and no stats report — the Clearinghouse must find
  /// out the hard way (missed heartbeats).
  void kill() { loop_.submit([this] { node_.crash(); }); }

  /// Graceful owner reclaim: drain the closures and steal ledger through
  /// the acked migration handshake and depart, leaving a forwarding stub.
  void evict() { loop_.submit([this] { node_.reclaim_by_owner(); }); }

  /// Bring a killed or evicted worker back as a fresh incarnation: the core
  /// is reset (survivors redo the dead life's work) and the node
  /// re-registers into the running job.  The forwarding stub and its fill
  /// log survive into the new life.
  void rejoin() { loop_.submit([this] { node_.rejoin(); }); }

  /// Stop the node's loop once it has run everything posted so far (after
  /// request_stop()).  Nothing of the node runs on it again.
  void join() { loop_.stop(); }

  net::NodeLoop& loop() { return loop_; }
  std::uint32_t incarnation() const;
  WorkerStats stats_snapshot() const;
  /// The node's protocol state, one line (stall diagnosis).
  std::string describe() const;
  const net::ChannelStats& channel_stats() const { return udp_.stats(); }

 private:
  // WorkerNode::Driver.
  void schedule_step(std::uint64_t delay) override;
  void cancel_step() override;
  void isolate(bool cut) override { node_.rpc().set_paused(cut); }

  /// Run a batch of ready tasks, or go stealing when there are none.
  void step();

  net::NodeId me_;
  net::UdpChannel& udp_;
  net::NodeLoop& loop_;
  net::TimerToken step_timer_{};
  std::uint64_t step_at_ = 0;
  /// Present when config.fault_plan is set; the node then speaks through it.
  std::unique_ptr<net::FaultyChannel> faulty_;
  WorkerNode node_;
};

/// One Clearinghouse replica on its socket's loop.  Only the loop's thread
/// touches the Clearinghouse; other threads reach it through run().  The
/// destructor stops the loop first, so nothing of the replica runs while it
/// is destroyed.
class UdpClearinghouse {
 public:
  UdpClearinghouse(net::UdpNetwork& network, net::NodeId id,
                   const ClearinghouseConfig& config,
                   std::uint64_t jitter_seed);
  ~UdpClearinghouse() { loop_.stop(); }

  UdpClearinghouse(const UdpClearinghouse&) = delete;
  UdpClearinghouse& operator=(const UdpClearinghouse&) = delete;

  /// Run `fn(clearinghouse)` on the loop's thread and return its result.
  template <typename F>
  auto run(F fn) {
    return loop_.submit([this, &fn] { return fn(clearinghouse_); }).get();
  }

  net::NodeId id() const { return rpc_.id(); }
  net::NodeLoop& loop() { return loop_; }
  /// Trace the replica's RPC traffic (before any runs).
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock) {
    rpc_.set_trace(shard, clock);
  }

 private:
  net::NodeLoop& loop_;
  net::RpcNode rpc_;
  Clearinghouse clearinghouse_;
};

/// Harness: stand up a Clearinghouse and N workers on loopback UDP, run one
/// job, tear everything down.
class UdpJob {
 public:
  UdpJob(const TaskRegistry& registry, UdpJobConfig config);

  /// Throws std::runtime_error on watchdog timeout; its message lists every
  /// worker's protocol state (UdpWorker::describe) and the primary
  /// Clearinghouse's (Clearinghouse::describe).
  UdpJobResult run(TaskId root, std::vector<Value> args);
  UdpJobResult run(const std::string& root, std::vector<Value> args);

 private:
  const TaskRegistry& registry_;
  UdpJobConfig config_;
};

}  // namespace phish::rt
