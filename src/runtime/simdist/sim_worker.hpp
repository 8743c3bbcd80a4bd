// A Phish worker as a discrete-event-simulation actor.
//
// The worker drives the same WorkerCore as the other runtimes, but time is
// simulated: each executed task advances the worker's clock by a scheduling
// overhead plus the work the task reported via Context::charge, and every
// message charges the sender/receiver the configured software overhead — the
// cost structure the paper identifies as dominant on workstation networks.
//
// Behaviour per the paper:
//   * registers with the Clearinghouse on start, unregisters on exit,
//     heartbeats periodically, and refreshes its membership view on a timer
//     ("once every 2 minutes to obtain an update");
//   * executes ready tasks LIFO; when out of work becomes a thief, picking a
//     victim uniformly at random and stealing FIFO via a steal RPC;
//   * after `max_failed_steals` consecutive failed steals concludes the
//     job's parallelism has shrunk, migrates its remaining (waiting)
//     closures to a peer, and terminates, returning its workstation to the
//     macro scheduler;
//   * on an owner-reclaim request does the same immediately ("the process's
//     data migrates before termination to another process of the same
//     parallel job");
//   * on a death notice redoes the tasks its dead thieves stole (via the
//     WorkerCore steal ledger);
//   * after departing, leaves a forwarding stub so in-flight arguments reach
//     the successor that received its closures.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/ch_client.hpp"
#include "core/clearinghouse.hpp"
#include "core/recovery.hpp"
#include "core/worker_core.hpp"
#include "net/rpc.hpp"
#include "net/sim_net.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace phish::rt {

/// How a thief chooses its victim (ablation A3).  The paper: "the thief
/// chooses uniformly at random a victim participant"; the alternatives show
/// why that choice matters.
enum class VictimPolicy : std::uint8_t {
  kUniformRandom,  // the paper's policy
  kRoundRobin,     // cycle deterministically through the membership
  kFixedFirst,     // always the first participant (pathological hot-spot)
  /// Heterogeneous-network extension (paper §6: "preserve locality with
  /// respect to those network cuts that have the least bandwidth"): steal
  /// from victims in the thief's own network cluster first, crossing the
  /// cut only after `cluster_escalate_after` consecutive local failures.
  kClusterLocal,
};

struct SimWorkerParams {
  /// Scheduling overhead charged per task executed (task packaging,
  /// queue manipulation, network polling — the serial-slowdown sources).
  sim::SimTime task_overhead = 5 * sim::kMicrosecond;
  /// Simulated time per unit of application work (Context::charge).
  sim::SimTime charge_unit = 2 * sim::kMicrosecond;
  /// Pause between failed steal attempts.
  sim::SimTime steal_retry_delay = 2 * sim::kMillisecond;
  /// Consecutive failed steals before the thief concludes parallelism has
  /// shrunk and terminates.  Default: effectively never (measurement runs).
  int max_failed_steals = std::numeric_limits<int>::max();
  /// Liveness heartbeat to the Clearinghouse.  0 disables (the paper's
  /// prototype had no heartbeats; crash recovery is our extension).
  sim::SimTime heartbeat_period = 1 * sim::kSecond;
  /// Membership refresh period (paper: 2 minutes; scaled down by default so
  /// short simulated jobs still see refreshes).  0 disables.
  sim::SimTime update_period = 10 * sim::kSecond;
  /// Retransmission policy for steal/registration RPCs.
  net::RetryPolicy rpc_policy{200 * sim::kMillisecond, 5, 2.0};
  /// Registration backoff: first retry delay, doubling per failure up to the
  /// cap, with seeded jitter.  Keeps a mass rejoin (rack power-up) from
  /// hammering the coordinator in lockstep.
  sim::SimTime register_backoff = 1 * sim::kSecond;
  sim::SimTime register_backoff_max = 16 * sim::kSecond;
  /// Relative CPU speed (2.0 = twice as fast); scales all compute costs.
  double cpu_speed = 1.0;
  /// Victim selection (ablation A3 / topology extension).
  VictimPolicy victim_policy = VictimPolicy::kUniformRandom;
  /// kClusterLocal: consecutive failed local steals before trying a victim
  /// across the cluster cut.
  int cluster_escalate_after = 4;
  /// Most tasks one steal RPC may carry back (steal-half, capped).  Default
  /// 1 = the paper's steal-one; larger batches amortize the RPC round trip
  /// when victims run deep queues.
  int steal_batch = 1;
};

class SimWorker {
 public:
  enum class State {
    kCreated,
    kRegistering,
    kActive,
    kDeparting,  // durability handshake in flight: ledger registration, acked
                 // cargo handoff, holder confirmation.  Still heartbeating;
                 // refuses steals; a crash here is survivable (the ledger or
                 // the victims' redo covers the cargo).
    kDeparted,   // left (shrunk parallelism / owner reclaim); stub forwards
    kFinished,   // job completed normally
    kDead,       // crashed (fault-injection)
  };

  enum class DepartReason { kParallelismShrank, kOwnerReclaimed, kPreempted };

  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.
  SimWorker(sim::Simulator& simulator, net::SimNetwork& network,
            net::TimerService& timers, const TaskRegistry& registry,
            net::NodeId me, std::vector<net::NodeId> clearinghouse,
            SimWorkerParams params, std::uint64_t seed,
            ExecOrder exec_order = ExecOrder::kLifo,
            StealOrder steal_order = StealOrder::kFifo);

  /// Fails the RPCs still pending while client_ and the worker's fields
  /// are alive: ~RpcNode would complete them only after both are destroyed.
  ~SimWorker() { rpc_.shutdown(); }

  SimWorker(const SimWorker&) = delete;
  SimWorker& operator=(const SimWorker&) = delete;

  /// Give this worker the job's root task; it is spawned once registration
  /// completes (only one participant of a job should carry a root).
  void set_root(TaskId task, std::vector<Value> args);

  /// Checkpoint restore: install a WorkerCore state (export_state from the
  /// same node id) once registration completes.  Mutually exclusive with
  /// set_root.
  void set_restore_state(Bytes state) { restore_state_ = std::move(state); }

  /// True when this worker holds nothing that a checkpoint would miss:
  /// no buffered sends awaiting their task-cost flush and no steal RPC
  /// outstanding.  (The network's own in-flight count is checked by the
  /// checkpoint service.)
  bool checkpoint_quiescent() const noexcept {
    return outbox_.empty() && !steal_in_flight_;
  }

  /// Serialize the closure state (checkpointing; quiescent instants only).
  /// Not const: lazily spawned closures are materialized (named) so the
  /// snapshot is globally addressable.
  Bytes export_core_state() { return core_.export_state(); }

  /// Begin: register with the Clearinghouse.
  void start();

  /// Simulate the owner reclaiming the workstation (macro scheduler / owner
  /// trace): migrate state and terminate.
  void reclaim_by_owner();

  /// Priority preemption (PhishJobD): same migrate-then-terminate path as an
  /// owner reclaim — the paper's worker-death case (d) machinery — but
  /// attributed to the scheduler, so the macro level can tell evictions for
  /// high-priority work apart from owners returning.
  void preempt_by_scheduler();

  /// Simulate a crash: the machine vanishes without any cleanup.
  void crash();

  /// Bring a crashed worker back as a fresh incarnation: heal its network
  /// cut, discard the dead life's closures (survivors redo them), and
  /// re-register into the running job at the current epoch.
  void rejoin();

  std::uint32_t incarnation() const noexcept { return incarnation_; }

  /// MTTR instrumentation: note_steal fires on every successful steal (the
  /// tracker ignores it outside a recovery window).
  void set_recovery_tracker(RecoveryTracker* tracker) { tracker_ = tracker; }

  // ---- Observers. ----
  State state() const noexcept { return state_; }
  bool terminated() const noexcept {
    return state_ == State::kDeparted || state_ == State::kFinished ||
           state_ == State::kDead;
  }
  net::NodeId id() const noexcept { return me_; }
  const WorkerStats& stats() const noexcept { return core_.stats(); }
  const net::ChannelStats& channel_stats() const {
    return network_.channel(me_).stats();
  }
  sim::SimTime start_time() const noexcept { return start_time_; }
  sim::SimTime end_time() const noexcept { return end_time_; }
  /// Wall-clock lifetime of this participant, the paper's T_P(i).
  sim::SimTime lifetime() const noexcept { return end_time_ - start_time_; }
  std::optional<DepartReason> depart_reason() const noexcept {
    return depart_reason_;
  }

  /// Application output (forwarded to the Clearinghouse's I/O log).
  void emit_io(const std::string& text);

  /// Fires once when the worker terminates for any reason (finished,
  /// departed, crashed).  The macro scheduler uses this to put the
  /// workstation back under PhishJobManager control.
  void set_on_terminated(std::function<void(State)> fn) {
    on_terminated_ = std::move(fn);
  }

  /// Attach a trace sink (virtual-clock domain).  The core's own kExecute
  /// spans are suppressed: virtual time does not advance inside execute(),
  /// so this worker emits [now, now + cost] spans itself once the task's
  /// simulated cost is known.
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock) {
    trace_shard_ = (shard != nullptr && clock != nullptr) ? shard : nullptr;
    core_.set_trace(shard, clock, /*emit_execute_spans=*/false);
    rpc_.set_trace(shard, clock);
  }

 private:
  void on_registered(const proto::Membership& membership);
  /// Apply a delta (or embedded full snapshot) to the peer list and advance
  /// the known epoch.
  void apply_membership_update(const proto::MembershipUpdate& update);
  /// Common post-registration activation (timers, root, restore, first step).
  void activate();
  void schedule_step(sim::SimTime delay);
  void step();
  void attempt_steal();
  void on_steal_reply(net::NodeId victim, net::RpcResult result);
  void handle_oneway(net::Message&& message);
  Bytes handle_control(const Bytes& args);
  void apply_death(net::NodeId dead);
  Bytes serve_steal(net::NodeId src, const Bytes& args);
  Bytes serve_migrate(net::NodeId src, const Bytes& args);
  void evict(DepartReason reason);
  void depart(DepartReason reason);
  // ---- Migration durability handshake (state kDeparting). ----
  /// Drain the core and steal ledger; if anything remains, register it in
  /// the Clearinghouse's migration ledger and hand it off.  A death notice
  /// mid-handshake re-fills the core with redo snapshots, so confirm_holder
  /// loops back here until a round drains nothing.
  void begin_migration_round();
  void try_handoff(std::uint64_t mid, std::vector<Closure> cargo,
                   std::vector<proto::MigrantLedgerEntry> ledger,
                   std::vector<net::NodeId> candidates);
  void confirm_holder(std::uint64_t mid, net::NodeId holder);
  /// Handshake fallback: leave WITHOUT unregistering, so the failure
  /// detector declares us dead and the standard redo (victims' ledgers, or
  /// the Clearinghouse's, whichever got far enough) recovers the cargo.
  void abandon_depart(const char* why);
  void finalize_depart(bool cargo_lost);
  /// Log a post-drain argument fill (ttl already decremented, re-encoded)
  /// and forward the unsent tail of the log to the current successor.
  void log_and_forward_fill(proto::ArgumentMsg arg);
  void flush_fill_log();
  void finish();
  /// `unregister` false leaves the registration in place on purpose: a
  /// departure that dropped closures must be *detected as a death* so the
  /// redo machinery fires; a clean goodbye would bury the loss.
  void send_stats_and_unregister(bool unregister = true);
  void refresh_membership();
  sim::SimTime scaled(sim::SimTime cpu_time) const {
    return static_cast<sim::SimTime>(static_cast<double>(cpu_time) /
                                     params_.cpu_speed);
  }
  std::optional<net::NodeId> pick_peer();
  std::optional<net::NodeId> pick_victim();

  sim::Simulator& sim_;
  net::SimNetwork& network_;
  net::TimerService& timers_;
  net::NodeId me_;
  net::NodeId clearinghouse_;  // original primary; home of the root cont
  SimWorkerParams params_;
  Xoshiro256 rng_;

  net::RpcNode rpc_;
  ClearinghouseClient client_;
  WorkerCore core_;
  std::uint32_t incarnation_ = 1;
  RecoveryTracker* tracker_ = nullptr;

  State state_ = State::kCreated;
  std::optional<DepartReason> depart_reason_;
  std::optional<std::pair<TaskId, std::vector<Value>>> root_;
  std::optional<Bytes> restore_state_;
  std::vector<net::NodeId> peers_;  // membership minus self
  /// Highest membership epoch applied; presented to the Clearinghouse so
  /// register/update replies can be deltas instead of full snapshots.
  /// 0 = never registered (first contact always gets the full set).
  std::uint64_t known_epoch_ = 0;
  /// Current registration retry delay (0 = no failure yet).
  sim::SimTime register_backoff_ = 0;
  std::size_t round_robin_cursor_ = 0;
  int consecutive_failed_steals_ = 0;
  bool steal_in_flight_ = false;
  // Eviction (owner reclaim or scheduler preemption) arrived while a steal
  // RPC was outstanding: departure is deferred until the reply resolves,
  // else a closure riding a retransmitted reply is lost with no redo (the
  // thief departed, it didn't die).
  std::optional<DepartReason> pending_evict_;
  net::NodeId forward_to_;  // successor after departure
  // A restart arrived while the durability handshake was in flight: finish
  // departing first, then come back as the fresh incarnation.
  bool pending_rejoin_ = false;
  /// Migration-id sequence (high word = our node id, low word = this).
  std::uint32_t next_mig_seq_ = 0;
  /// Migration ids already installed: dedupes a Clearinghouse redelivery
  /// racing the origin's own (retransmitted) handoff.  Cleared on rejoin —
  /// the new life starts empty, so a redelivery must land again.
  std::unordered_set<std::uint64_t> seen_migrations_;
  /// Every node a death notice ever named, across its whole history (never
  /// cleared): an adopted steal-ledger entry whose thief is here must be
  /// redone immediately — the notice that would trigger it already fired.
  std::unordered_set<std::uint32_t> ever_died_;
  /// Argument fills received after the drain (re-encoded with ttl-1), in
  /// arrival order.  Flushed to the successor as it is confirmed; replayed
  /// in full on kReroute so a redelivered holder sees every fill the lost
  /// one did.  Retained across rejoin (the stub obligation outlives us),
  /// but only while outstanding_migrations_ is non-empty: once every
  /// migration we registered has been retired (kMigrationRetired), no
  /// reroute can replay it, so it is released instead of growing for the
  /// stub's whole lifetime.
  std::vector<Bytes> fill_log_;
  std::size_t flushed_fills_ = 0;
  /// Migration ids we registered in the coordinator's ledger whose entries
  /// have not been retired yet (kMigrationRetired erases them).
  std::unordered_set<std::uint64_t> outstanding_migrations_;

  // Step scheduling.
  bool step_scheduled_ = false;
  sim::EventId step_event_{};
  sim::SimTime next_step_time_ = 0;
  sim::SimTime cpu_debt_ = 0;  // message-handling CPU to charge at next step
  bool executing_ = false;     // inside core_.execute()
  std::vector<std::function<void()>> outbox_;  // sends buffered mid-task

  sim::SimTime start_time_ = 0;
  sim::SimTime end_time_ = 0;
  std::function<void(State)> on_terminated_;
  obs::TraceShard* trace_shard_ = nullptr;
  sim::SimTime steal_sent_at_ = 0;  // virtual-time steal latency
  obs::Histogram& steal_latency_ =
      obs::Registry::global().histogram("steal.latency_ns");

  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer update_timer_;
};

}  // namespace phish::rt
