// SimCluster: a simulated network of workstations running one Phish job.
//
// This is the harness behind Figures 4 and 5 and Table 2: it stands up a
// Clearinghouse and P workers on a SimNetwork, starts the workers at
// (nearly) the same time — the paper: "we attempted to start each
// participating computer at as close to the same time as possible" — runs
// the simulator until the job completes and every participant has wound
// down, and reports per-participant lifetimes T_P(i), the aggregated
// scheduling statistics, and message counts.
//
// Fault injection (crash_at) and owner reclaims (reclaim_at) drive the
// fault-tolerance and adaptive-parallelism experiments.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/clearinghouse.hpp"
#include "core/recovery.hpp"
#include "net/fault.hpp"
#include "obs/clock.hpp"
#include "obs/tracer.hpp"
#include "runtime/simdist/sim_worker.hpp"

namespace phish::rt {

struct SimJobConfig {
  int participants = 4;
  net::SimNetParams net;
  SimWorkerParams worker;
  ClearinghouseConfig clearinghouse;
  std::uint64_t seed = 0x5eed'0000'0020ULL;
  /// Scheduling policies (ablations).
  ExecOrder exec_order = ExecOrder::kLifo;
  StealOrder steal_order = StealOrder::kFifo;
  /// Per-worker network cluster assignment (heterogeneous-network
  /// extension); empty = everyone in cluster 0.  The Clearinghouse sits in
  /// cluster 0.
  std::vector<int> worker_clusters;
  /// Give up if the job has not completed by this much simulated time.
  sim::SimTime max_sim_time = 3'600 * sim::kSecond;
  /// Run a warm-standby Clearinghouse replica (node P+1): the primary pushes
  /// epoch-numbered state deltas to it, and it promotes itself when the
  /// primary misses its lease.  Off by default so failure-free measurement
  /// runs carry no replication traffic.
  bool enable_backup = false;
  /// Optional event tracer (virtual-clock domain).  Worker i writes to
  /// tracer->shard(i + 1); the Clearinghouse's RPC traffic goes to shard 0.
  obs::Tracer* tracer = nullptr;
};

/// A consistent snapshot of a running job (paper §6: "support for
/// checkpointing").  Taken at a network-quiescent simulated instant, so the
/// per-worker closure states are jointly complete: every task in the job is
/// in exactly one ready list or waiting table, with no dataflow in flight.
struct JobCheckpoint {
  sim::SimTime taken_at = 0;
  std::vector<Bytes> worker_states;  // indexed by worker

  Bytes encode() const;
  static std::optional<JobCheckpoint> decode(const Bytes& bytes);
};

struct SimJobResult {
  Value value;
  /// Simulated seconds from first worker start to result at Clearinghouse.
  double makespan_seconds = 0.0;
  /// Per-participant lifetime T_P(i) in seconds, in worker order.
  std::vector<double> participant_seconds;
  /// Average of participant_seconds (the paper's Figure 4 quantity).
  double average_participant_seconds = 0.0;
  WorkerStats aggregate;
  std::vector<WorkerStats> per_worker;
  /// Messages sent, summed over workers (Table 2's "Messages sent").
  std::uint64_t messages_sent = 0;
  /// Messages that crossed a cluster cut (topology extension).
  std::uint64_t inter_cluster_messages = 0;
  std::uint64_t events_fired = 0;
  std::vector<proto::IoMsg> io_log;
};

class SimCluster {
 public:
  SimCluster(const TaskRegistry& registry, SimJobConfig config);

  /// Schedule a crash of worker `index` at simulated time `when`.
  void crash_at(int index, sim::SimTime when);
  /// Schedule an owner reclaim of worker `index` at simulated time `when`.
  void reclaim_at(int index, sim::SimTime when);
  /// Schedule a rejoin of a (by-then crashed) worker: fresh incarnation,
  /// re-registers into the running job and starts stealing.
  void rejoin_at(int index, sim::SimTime when);
  /// Schedule a crash of the primary Clearinghouse (requires enable_backup
  /// for the job to survive it).
  void crash_primary_at(sim::SimTime when);
  /// Install a whole fault schedule before run(): the plan's link rules are
  /// injected natively into the simulated network (virtual-time drop /
  /// duplicate / reorder / delay) and its node events are scheduled —
  /// kCrash -> SimWorker::crash, kReclaim -> reclaim_by_owner, kPartition /
  /// kHeal / kRestart -> network partition toggles.
  void apply_fault_plan(const net::FaultPlan& plan);

  /// Run root(args...) to completion and collect the results.
  /// Throws std::runtime_error if the job does not finish in max_sim_time;
  /// its message lists every worker's protocol state (WorkerNode::describe)
  /// and the acting Clearinghouse's (Clearinghouse::describe).
  SimJobResult run(TaskId root, std::vector<Value> args);

  /// Resume a job from a checkpoint taken on a cluster with the same
  /// participant count (the fresh cluster's workers adopt the checkpointed
  /// closure states after registering).
  SimJobResult resume(const JobCheckpoint& checkpoint);

  /// Ask the checkpoint service to snapshot the job at (the first
  /// network-quiescent instant after) `when`.  Call before run().  The
  /// snapshot, if one was taken before the job finished, is available from
  /// checkpoint() afterwards.
  void request_checkpoint_at(sim::SimTime when);
  const std::optional<JobCheckpoint>& checkpoint() const {
    return checkpoint_;
  }

  // Access for white-box tests.
  sim::Simulator& simulator() { return sim_; }
  net::SimNetwork& network() { return network_; }
  Clearinghouse& clearinghouse() { return *clearinghouse_; }
  /// The warm standby, or nullptr when enable_backup is off.
  Clearinghouse* backup() { return backup_.get(); }
  /// Whichever replica is currently acting as coordinator.
  Clearinghouse& acting_clearinghouse();
  RecoveryTracker& recovery() { return recovery_; }
  SimWorker& worker(int index) { return *workers_.at(index); }
  int participants() const { return config_.participants; }

 private:
  SimJobResult drive();
  void try_checkpoint();

  const TaskRegistry& registry_;
  SimJobConfig config_;
  std::optional<JobCheckpoint> checkpoint_;
  sim::Simulator sim_;
  obs::VirtualClock<sim::Simulator> virtual_clock_{sim_};
  net::SimNetwork network_;
  std::unique_ptr<net::FaultInjector> fault_injector_;
  net::SimTimerService timers_;
  std::unique_ptr<net::RpcNode> ch_rpc_;
  std::unique_ptr<Clearinghouse> clearinghouse_;
  std::unique_ptr<net::RpcNode> backup_rpc_;
  std::unique_ptr<Clearinghouse> backup_;
  RecoveryTracker recovery_;
  std::vector<std::unique_ptr<SimWorker>> workers_;
  bool ran_ = false;
};

/// One-call convenience used by the benches.
SimJobResult run_sim_job(const TaskRegistry& registry, TaskId root,
                         std::vector<Value> args, SimJobConfig config);

}  // namespace phish::rt
