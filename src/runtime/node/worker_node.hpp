// One Phish worker's protocol, written once.
//
// WorkerNode is the participant the paper describes, as a single-threaded,
// event-driven actor over an RpcNode and a TimerService:
//   * registers with the Clearinghouse (retrying forever with capped,
//     jittered backoff), heartbeats every replica, and refreshes its
//     membership view on a timer ("once every 2 minutes to obtain an
//     update") and after repeated failed steals;
//   * when out of work becomes a thief: picks a victim (uniformly at random
//     by default) and steals FIFO by RPC, split-phase — the node never waits
//     for the reply;
//   * after `max_failed_steals` consecutive failed steals concludes the
//     job's parallelism has shrunk, and on an owner reclaim or a scheduler
//     preemption departs: drains its closures and steal ledger through the
//     acked three-step migration handshake (ledger registration, handoff,
//     holder confirmation) and stays behind as a forwarding stub;
//   * on a death notice redoes the tasks its dead thieves stole, and on a
//     thief's steal cancellation redoes exactly that steal's tasks — or,
//     once departed, passes the cancel on to whoever holds its ledger;
//   * survives its own crash by rejoining as a fresh incarnation.
//
// The node never blocks and takes no lock.  Whatever runs it — a Driver —
// calls every method from one thread of control and supplies the scheduling
// step and the cost model: SimWorker charges virtual time on the simulator,
// UdpWorker runs it on its socket's event loop (NodeLoop).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/ch_client.hpp"
#include "core/clearinghouse.hpp"
#include "core/recovery.hpp"
#include "core/worker_core.hpp"
#include "net/rpc.hpp"
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
  /// cut only after a few consecutive local failures.
  kClusterLocal,
};

/// Protocol settings, shared by every driver.  Times are nanoseconds on the
/// driver's clock (virtual in simulation, steady on real sockets).
struct NodeParams {
  /// Pause between failed steal attempts.
  std::uint64_t steal_retry_delay = 2'000'000;
  /// Consecutive failed steals before the thief concludes parallelism has
  /// shrunk and terminates.  Default: effectively never (measurement runs).
  int max_failed_steals = std::numeric_limits<int>::max();
  /// Liveness heartbeat to the Clearinghouse.  0 disables (the paper's
  /// prototype had no heartbeats; crash recovery is our extension).
  std::uint64_t heartbeat_period = 1'000'000'000;
  /// Membership refresh period (paper: 2 minutes; scaled down by default so
  /// short jobs still see refreshes).  0 disables.
  std::uint64_t update_period = 10'000'000'000;
  /// Retransmission policy for every RPC the node makes.
  net::RetryPolicy rpc_policy{200'000'000, 5, 2.0};
  /// Registration backoff: first retry delay, doubling per failure up to the
  /// cap, with seeded jitter.  Keeps a mass rejoin (rack power-up) from
  /// hammering the coordinator in lockstep.
  std::uint64_t register_backoff = 1'000'000'000;
  std::uint64_t register_backoff_max = 16'000'000'000;
  /// Victim selection (ablation A3 / topology extension).
  VictimPolicy victim_policy = VictimPolicy::kUniformRandom;
  /// Most tasks one steal RPC may carry back (steal-half, capped).  1 is the
  /// paper's steal-one; larger batches amortize the RPC round trip when
  /// victims run deep queues.
  int steal_batch = 1;
};

class WorkerNode {
 public:
  enum class State {
    kCreated,
    kRegistering,
    kActive,
    kDeparting,  // durability handshake in flight: ledger registration, acked
                 // cargo handoff, holder confirmation.  Still heartbeating;
                 // refuses steals and cargo; a crash here is survivable (the
                 // ledger or the victims' redo covers the cargo).
    kDeparted,   // left (shrunk parallelism / owner reclaim); stub forwards
    kFinished,   // job completed normally
    kDead,       // crashed (fault-injection)
  };

  enum class DepartReason { kParallelismShrank, kOwnerReclaimed, kPreempted };

  /// What the node needs from whatever runs it.  The node calls these from
  /// its own thread of control only.
  class Driver {
   public:
    /// Call step() after `delay_ns`; an earlier pending request wins.
    virtual void schedule_step(std::uint64_t delay_ns) = 0;
    /// Drop the pending step request, if any (crash).
    virtual void cancel_step() = 0;
    /// Run `send` now, or — when a task is executing — once the task's cost
    /// has elapsed.
    virtual void send_from_task(std::function<void()> send) { send(); }
    /// Cost model: CPU spent sending `bytes` / receiving one message.
    virtual void charge_send(std::size_t /*bytes*/) {}
    virtual void charge_recv() {}
    /// Cut the node off the network (crash) or reconnect it (rejoin).
    virtual void isolate(bool cut) = 0;
    /// Network cluster of `node` (kClusterLocal victim selection).
    virtual int cluster_of(net::NodeId /*node*/) const { return 0; }

   protected:
    ~Driver() = default;
  };

  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.  `channel` and
  /// `timers` must deliver to the driver's thread of control.
  WorkerNode(net::Channel& channel, net::TimerService& timers,
             const TaskRegistry& registry, net::NodeId me,
             std::vector<net::NodeId> clearinghouse, const NodeParams& params,
             std::uint64_t seed, ExecOrder exec_order, StealOrder steal_order,
             Driver& driver);

  /// Fails the RPCs still pending while the client and the node's fields
  /// are alive: ~RpcNode would complete them only after both are destroyed.
  ~WorkerNode() { rpc_.shutdown(); }

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  // ---- Lifecycle. ----

  /// Give this worker the job's root task; it is spawned once registration
  /// completes (only one participant of a job should carry a root).
  void set_root(TaskId task, std::vector<Value> args) {
    root_ = std::make_pair(task, std::move(args));
  }

  /// Checkpoint restore: install a WorkerCore state (export_state from the
  /// same node id) once registration completes.  Mutually exclusive with
  /// set_root.
  void set_restore_state(Bytes state) { restore_state_ = std::move(state); }

  /// Begin: register with the Clearinghouse.
  void start();

  /// The owner reclaims the workstation: migrate state and terminate.
  void reclaim_by_owner() { evict(DepartReason::kOwnerReclaimed); }

  /// Priority preemption (PhishJobD): the owner-reclaim path, attributed to
  /// the scheduler so the macro level can tell the two apart.
  void preempt_by_scheduler() { evict(DepartReason::kPreempted); }

  /// The job is over (shutdown broadcast, or the harness winding down):
  /// report stats and unregister.  No-op unless registering or active.
  void finish_job();

  /// Crash: the machine vanishes without any cleanup.
  void crash();

  /// Bring a crashed or departed worker back as a fresh incarnation: discard
  /// the dead life's closures (survivors redo them) and re-register into the
  /// running job.  A restart racing a departure waits for it to complete.
  void rejoin();

  // ---- Driver's step. ----

  /// A task ran: the steal-failure streak is over.
  void note_task_ran() noexcept { consecutive_failed_steals_ = 0; }
  /// No task is ready: go stealing unless a steal is already in flight.
  void steal_if_idle();

  // ---- Wiring and observers. ----

  /// MTTR instrumentation: note_steal fires on every successful steal (the
  /// tracker ignores it outside a recovery window).
  void set_recovery_tracker(RecoveryTracker* tracker) { tracker_ = tracker; }
  /// Fires once per life when the worker terminates (finished, departed,
  /// crashed).  The macro scheduler uses it to reclaim the workstation.
  void set_on_terminated(std::function<void(State)> fn) {
    on_terminated_ = std::move(fn);
  }
  /// Attach a trace sink.  `execute_spans` false suppresses the core's own
  /// kExecute spans (a driver whose clock does not advance inside execute()
  /// emits them itself).
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock,
                 bool execute_spans = true) {
    core_.set_trace(shard, clock, execute_spans);
    rpc_.set_trace(shard, clock);
  }

  /// Application output (forwarded to the Clearinghouse's I/O log).
  void emit_io(const std::string& text);

  State state() const noexcept { return state_; }
  bool terminated() const noexcept {
    return state_ == State::kDeparted || state_ == State::kFinished ||
           state_ == State::kDead;
  }
  net::NodeId id() const noexcept { return me_; }
  std::uint32_t incarnation() const noexcept { return incarnation_; }
  const WorkerStats& stats() const noexcept { return core_.stats(); }
  WorkerCore& core() noexcept { return core_; }
  net::RpcNode& rpc() noexcept { return rpc_; }
  bool steal_in_flight() const noexcept { return steal_in_flight_; }
  /// Lifetime of this participant, the paper's T_P(i).
  std::uint64_t lifetime() const noexcept { return end_time_ - start_time_; }
  std::optional<DepartReason> depart_reason() const noexcept {
    return depart_reason_;
  }
  /// Serialize the closure state (checkpointing; quiescent instants only).
  Bytes export_core_state() { return core_.export_state(); }

  /// One line of protocol state for stall diagnosis: state, incarnation,
  /// ready and waiting counts, steal in flight, steal-ledger size, peers.
  std::string describe() const;

 private:
  /// Re-arms itself every period until stopped, over the node's timers.
  class PeriodicTimer {
   public:
    PeriodicTimer(net::TimerService& timers, std::uint64_t period,
                  std::function<void()> on_tick)
        : timers_(timers), period_(period), on_tick_(std::move(on_tick)) {}
    ~PeriodicTimer() { stop(); }
    void start(std::uint64_t initial_delay);
    void start() { start(period_); }
    void stop();

   private:
    void arm(std::uint64_t delay);

    net::TimerService& timers_;
    const std::uint64_t period_;
    std::function<void()> on_tick_;
    net::TimerToken pending_{};
    std::uint64_t generation_ = 0;  // bumped by every stop() and arm()
  };

  void on_registered(net::RpcResult result, std::uint64_t since);
  /// Apply a membership reply (a delta when we presented `since` > 0, else
  /// a full snapshot) to the peer list and the known epoch.
  bool apply_membership(const Bytes& reply, std::uint64_t since);
  /// Common post-registration activation (timers, root, restore, first step).
  void activate();
  void on_steal_reply(net::NodeId victim, std::uint64_t steal_seq,
                      net::RpcResult result);
  void handle_oneway(net::Message&& message);
  Bytes handle_control(const Bytes& args);
  void apply_death(net::NodeId dead);
  Bytes serve_steal(const Bytes& args);
  Bytes serve_migrate(const Bytes& args);
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
  /// Become a stub.  On a handshake `failure`, leave WITHOUT unregistering,
  /// so the failure detector declares us dead and the standard redo
  /// (victims' ledgers, or the Clearinghouse's, whichever got far enough)
  /// recovers the cargo.
  void finalize_depart(const char* failure = nullptr);
  /// What a departed node passes on to whoever holds its migrated cargo.
  struct Forward {
    bool cancel;    // a kStealCancel control call, else a kArgument fill
    Bytes payload;  // encoded message
  };
  /// Log a post-drain argument fill (ttl decremented, re-encoded) and
  /// forward it.
  void log_and_forward_fill(proto::ArgumentMsg arg);
  /// Log `item` and forward the unsent tail of the log to the current
  /// successor.
  void log_and_forward(Forward item);
  void flush_forward_log();
  void send_forward(const Forward& item);
  /// `unregister` false leaves the registration in place on purpose: a
  /// departure that dropped closures must be *detected as a death* so the
  /// redo machinery fires; a clean goodbye would bury the loss.
  void send_stats_and_unregister(bool unregister = true);
  void refresh_membership();
  /// This life is over (`how`: finished, departed or dead): stamp the end
  /// time and stop the heartbeat and membership timers.
  void end_life(State how);
  void notify_terminated() {
    if (on_terminated_) on_terminated_(state_);
  }
  std::optional<net::NodeId> pick_victim();

  net::TimerService& timers_;
  Driver& driver_;
  net::NodeId me_;
  net::NodeId clearinghouse_;  // original primary; home of the root cont
  NodeParams params_;
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
  std::uint64_t register_backoff_ = 0;
  std::size_t round_robin_cursor_ = 0;
  int consecutive_failed_steals_ = 0;
  bool steal_in_flight_ = false;
  std::uint64_t steal_sent_at_ = 0;
  /// Steal requests this node has sent, across lives; each carries the next
  /// number so a failed one can be cancelled at its victim.
  std::uint64_t steal_seq_ = 0;
  /// (thief, steal seq) pairs their thieves cancelled: the victim already
  /// redid what it served, or refuses the request if it arrives later.
  std::set<std::pair<std::uint32_t, std::uint64_t>> cancelled_steals_;
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
  /// Argument fills received after the drain (re-encoded with ttl-1) and
  /// steal cancels our departed ledger must serve, in arrival order.
  /// Flushed to the successor as it is confirmed; replayed in full on
  /// kReroute so a redelivered holder sees everything the lost one did.
  /// Retained across rejoin (the stub obligation outlives us), but only
  /// while outstanding_migrations_ is non-empty: once every migration we
  /// registered has been retired (kMigrationRetired), no reroute can replay
  /// it, so it is released instead of growing for the stub's whole
  /// lifetime.
  std::vector<Forward> forward_log_;
  std::size_t flushed_forwards_ = 0;
  /// Migration ids we registered in the coordinator's ledger whose entries
  /// have not been retired yet (kMigrationRetired erases them).
  std::unordered_set<std::uint64_t> outstanding_migrations_;

  std::uint64_t start_time_ = 0;
  std::uint64_t end_time_ = 0;
  std::function<void(State)> on_terminated_;
  obs::Histogram& steal_latency_ =
      obs::Registry::global().histogram("steal.latency_ns");

  PeriodicTimer heartbeat_timer_;
  PeriodicTimer update_timer_;
};

}  // namespace phish::rt
