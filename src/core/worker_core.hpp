// WorkerCore: the micro-level scheduler's per-participant state machine.
//
// One WorkerCore is the paper's "participating process" seen from the inside:
// the ready-task list (LIFO execution / FIFO steals), the table of waiting
// closures (tasks whose synchronization requirements are not yet met), the
// steal ledger used for fault-tolerant redo, and the Table-2 statistics.
// Fault-tolerance bookkeeping is paid per steal (the victim's ledger entry,
// the thief's Closure::stolen flag) or per death, never per execute.
//
// WorkerCore is deliberately runtime-agnostic: it never blocks, never sleeps,
// and touches the outside world only through Hooks.  The threads runtime
// drives many WorkerCores from std::threads (remote sends become direct
// deliveries into the target core), the simulated-distributed runtime drives
// them from simulator events with messages on the SimNetwork, and the UDP
// runtime drives them from real sockets.  External synchronization is the
// runtime's job; WorkerCore itself is not thread-safe.
//
// Hot-path design (see DESIGN.md §"The task hot path"):
//   * closures live in a per-core ClosurePool and move by pointer; the
//     spawn/execute/complete cycle allocates nothing in steady state;
//   * a locally spawned closure is *lazy*: it carries no ClosureId until a
//     thief, a migration, a redo snapshot, or a checkpoint needs a globally
//     valid name, at which point it is materialized (assigned an id).  Under
//     a tracer ids are assigned eagerly so trace events stay named;
//   * spawn+execute is fused for the LIFO child (Cilk-style): the most
//     recently spawned ready closure sits in a one-slot register — the top
//     of the conceptual ready stack — and the owner runs it without a deque
//     push/pop pair.  Only a steal, migration, or snapshot demotes it to the
//     real deque.  Under kFifo execution the register would reorder, so it
//     is off there;
//   * thieves can take a batch (steal-half) in one request.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/chase_lev.hpp"
#include "core/closure_pool.hpp"
#include "core/protocol.hpp"
#include "core/ready_deque.hpp"
#include "core/task_registry.hpp"
#include "core/waiting_table.hpp"
#include "core/worker_stats.hpp"
#include "obs/clock.hpp"
#include "obs/tracer.hpp"

namespace phish {

class Context;
class WorkerCore;

/// Scheduling policy for one WorkerCore: the ready-list orders (ablations
/// A1/A2) and the ready-list backend.
struct CoreOptions {
  ExecOrder exec_order = ExecOrder::kLifo;
  StealOrder steal_order = StealOrder::kFifo;
  /// Back the ready list with the lock-free Chase–Lev deque instead of the
  /// guarded ring, enabling the threads runtime's no-victim-lock steal path
  /// (steal_concurrent).  Requires the paper's standard orders (kLifo exec /
  /// kFifo steal); with ablation orders the guarded ring is used regardless.
  bool lockfree_deque = false;
};

/// Move-only handle to a closure popped for execution.  Dereference to
/// execute it; destruction returns the closure to the core's pool, so the
/// usual `while (auto c = core.pop_for_execution()) core.execute(*c);` loop
/// recycles closures with no further ceremony.
class PoppedTask {
 public:
  PoppedTask() noexcept = default;
  PoppedTask(Closure* closure, WorkerCore* core) noexcept
      : closure_(closure), core_(core) {}
  PoppedTask(const PoppedTask&) = delete;
  PoppedTask& operator=(const PoppedTask&) = delete;
  PoppedTask(PoppedTask&& other) noexcept
      : closure_(other.closure_), core_(other.core_) {
    other.closure_ = nullptr;
  }
  inline PoppedTask& operator=(PoppedTask&& other) noexcept;
  inline ~PoppedTask();

  explicit operator bool() const noexcept { return closure_ != nullptr; }
  bool has_value() const noexcept { return closure_ != nullptr; }
  Closure& operator*() const noexcept { return *closure_; }
  Closure* operator->() const noexcept { return closure_; }
  Closure* get() const noexcept { return closure_; }

 private:
  inline void release_() noexcept;

  Closure* closure_ = nullptr;
  WorkerCore* core_ = nullptr;
};

class WorkerCore {
 public:
  struct Hooks {
    /// Deliver an argument whose target closure lives on another worker.
    /// Required.
    std::function<void(const ContRef&, Value)> send_remote;
    /// Application output (Context::print).  The distributed runtimes route
    /// it to the Clearinghouse ("workers can perform I/O through the
    /// Clearinghouse, so a user need only watch the Clearinghouse to see job
    /// output").  Optional; defaults to stdout.
    std::function<void(const std::string&)> emit_io;
    /// A LOCAL send missed: cont.home names this worker but the target
    /// closure is not here.  On a worker whose previous incarnation migrated
    /// its closures away (owner reclaim, then restart), the target lives at
    /// the migration successor and the fill must follow the same forwarding
    /// stub remote arrivals use — without this hook it would be silently
    /// dead-lettered and the consumer would wait forever.  Return true to
    /// take ownership of the value (forwarded); false to fall through to
    /// normal dead-letter accounting.  Optional.
    std::function<bool(const ContRef&, Value&&)> forward_local_miss;
  };

  /// Most callers: the paper's scheduling orders, or the ablation orders,
  /// over the guarded ring.
  WorkerCore(net::NodeId me, const TaskRegistry& registry, Hooks hooks,
             ExecOrder exec_order = ExecOrder::kLifo,
             StealOrder steal_order = StealOrder::kFifo)
      : WorkerCore(me, registry, std::move(hooks),
                   CoreOptions{exec_order, steal_order}) {}

  WorkerCore(net::NodeId me, const TaskRegistry& registry, Hooks hooks,
             const CoreOptions& options);

  net::NodeId id() const noexcept { return me_; }
  const TaskRegistry& registry() const noexcept { return registry_; }

  // ---- Task-facing operations (called by tasks through Context). ----

  /// Create a ready closure and push it at the head of the ready list.
  /// Accepts an ArgSlots (or anything convertible: an initializer list of
  /// Values, a std::vector<Value>).
  void spawn(TaskId task, ArgSlots args, ContRef cont, std::uint32_t depth);

  /// Hot-path overload for brace-literal arguments: fills the pooled
  /// closure's slots in place, with no ArgSlots temporary.
  void spawn(TaskId task, std::initializer_list<Value> args, ContRef cont,
             std::uint32_t depth);

  /// Hottest-path overload: one argument, moved straight into slot 0 (no
  /// initializer-list array on the stack, no per-element copy loop).  The
  /// value rides an rvalue reference and the cont a const reference so the
  /// three-deep call chain does zero intermediate Value moves and one
  /// ContRef copy (into the closure) instead of three of each.
  void spawn(TaskId task, Value&& arg, const ContRef& cont,
             std::uint32_t depth);

  /// Create a waiting closure with `nslots` empty argument slots.  It becomes
  /// ready when all slots are filled.
  ClosureId create_waiting(TaskId task, std::uint16_t nslots, ContRef cont,
                           std::uint32_t depth);

  /// Continuation reference to slot `slot` of a closure created here.  When
  /// `id` names the most recently created waiting closure (the make-join-
  /// then-wire-slots idiom), the ref carries a pool pointer so local sends
  /// skip the waiting-table lookup; the hint never leaves this node (wire
  /// encoding drops it) and is id-revalidated before every use.
  ContRef slot_ref(const ClosureId& id, std::uint16_t slot) const {
    ContRef c{id, slot, me_};
    if (last_waiting_ != nullptr && last_waiting_->id == id) {
      c.local_hint = last_waiting_;
    }
    return c;
  }

  /// Send an argument to a continuation.  Local targets are filled in place
  /// (a *local* synchronization); remote targets go through
  /// Hooks::send_remote (a *non-local* synchronization).
  void send_argument(const ContRef& cont, Value&& value);

  // ---- Scheduler-facing operations (called by the runtime). ----

  /// Pop the next task for local execution (the fused register when
  /// occupied, else the head of the list under LIFO).  The returned handle
  /// owns the closure; destroying it recycles the closure, so execute()
  /// before letting it go out of scope.
  PoppedTask pop_for_execution() {
    return PoppedTask(pop_ready_(), this);
  }

  /// Execute a popped closure: runs the task function with a Context bound
  /// to this core.  The closure's storage is reclaimed by the PoppedTask
  /// handle it came from.  Defined inline below (hot path).
  void execute(Closure& closure);

  /// Victim side of a steal: surrender up to `max_tasks` tail tasks (capped
  /// at half the ready list — steal-half — and at kMaxStealBatch), each
  /// recorded in the steal ledger under the thief's `steal_seq` for redo if
  /// the thief later crashes or cancels the steal.
  std::vector<Closure> try_steal_batch(net::NodeId thief,
                                       std::uint32_t max_tasks,
                                       std::uint64_t steal_seq = 0);

  /// Thief side of a steal: install a stolen closure for execution, marked
  /// Closure::stolen so a death of its cont.home aborts it while queued.
  void install_stolen(Closure closure);

  // ---- Lock-free concurrent steal protocol (lockfree_deque mode). ----
  //
  // The threads runtime's no-victim-lock path: the thief CAS-steals pooled
  // Closure* directly from this core's Chase–Lev deque, from any thread,
  // while the owner keeps running.  Safety: a queued closure is immutable
  // (the owner never touches it again until it is popped, and the CAS grants
  // the thief exclusive logical ownership; the push-side release fence
  // paired with the steal-side acquire publishes its contents), so the thief
  // copies the closure by value.  The pool slot still belongs to the
  // victim's pool, so it parks in a return stash until the owner reclaims
  // it; victim-side accounting goes to atomics the owner folds in.  The
  // victim-side kStealServed trace event is skipped in this mode (trace
  // shards are SPSC; the thief must not write the victim's shard).

  /// Thief side, called WITHOUT the victim's lock (any thread).  Steals up
  /// to max_tasks closures (steal-half, capped) by value into `out`;
  /// returns how many.  Stolen closures may be unnamed (lazily spawned):
  /// the thief's install_stolen mints ids from its own band.
  std::size_t steal_concurrent(std::vector<Closure>& out,
                               std::uint32_t max_tasks);

  /// Owner side, under the runtime's core lock: fold the atomic victim-side
  /// steal accounting into stats() and release parked pool slots.
  void reclaim_stolen_slots();

  /// Cheap owner-side check whether reclaim_stolen_slots() has slots to
  /// return (folding of bare request counts can wait for stat collection).
  bool has_parked_slots() const noexcept {
    return stash_count_.load(std::memory_order_acquire) != 0;
  }

  /// Thief-side bookkeeping shared by all runtimes: a steal request left
  /// this worker / a request came back empty.  Counts the stat and traces
  /// the event, so runtimes don't hand-roll either.
  void note_steal_request_sent();
  void note_steal_failed();

  /// Deliver an argument that arrived from the network for a closure hosted
  /// here.
  enum class Deliver { kFilled, kBecameReady, kDuplicate, kUnknown };
  Deliver deliver_remote(const ClosureId& target, std::uint16_t slot,
                         Value value);

  // ---- Migration & fault tolerance. ----

  /// Package every closure (ready and waiting) for migration to `successor`
  /// and clear this core.  The paper: when the owner reclaims a workstation,
  /// "the process's data migrates before termination to another process of
  /// the same parallel job."
  std::vector<Closure> drain_for_migration();

  /// Install a migrated closure (ready ones go to the ready list, waiting
  /// ones to the waiting table).
  void install_migrated(Closure closure);

  /// Install a closure redelivered from the Clearinghouse migration ledger
  /// after its previous holder died: same placement as install_migrated but
  /// counted and traced as migration redo.
  void install_migration_redo(Closure closure);

  /// Export (and clear) every steal-ledger entry.  A departing worker hands
  /// these to its migration successor so a later death of a thief still
  /// triggers redo — without this, redo snapshots for tasks stolen from the
  /// departed worker would land in a stub that never executes anything
  /// (the crash-after-reclaim stranding in DESIGN.md's failure matrix).
  std::vector<proto::MigrantLedgerEntry> export_steal_ledger();

  /// Successor side: adopt one migrated steal-ledger entry, under its
  /// original steal sequence number so the thief can still cancel it.  When
  /// the runtime already saw a death notice for the thief (`thief_dead`),
  /// the snapshot is redone immediately instead of ledgered — the death
  /// notice that would have triggered redo has already come and gone.
  void adopt_migrant_ledger(proto::MigrantLedgerEntry entry, bool thief_dead);

  /// Entries currently in the steal ledger (cheap; drives the departing
  /// worker's decision whether a migration round is needed at all).
  std::size_t steal_ledger_size() const noexcept {
    return steal_ledger_.size();
  }

  /// A participant died: re-enqueue snapshots of every task it stole from us
  /// (redo), and abort queued tasks we stole whose results go to it (they
  /// could never be claimed).  Returns number of tasks re-enqueued.
  std::size_t handle_participant_death(net::NodeId dead);

  /// A live thief's steal call `steal_seq` failed, so it never installed
  /// what we served it: re-enqueue exactly those snapshots.  Returns number
  /// of tasks re-enqueued.
  std::size_t redo_steal(net::NodeId thief, std::uint64_t steal_seq);

  /// Forget ledger entries whose redo window has passed (job completed).
  void clear_steal_ledger() { steal_ledger_.clear(); }

  /// Crash recovery, the crashed worker's side: a rejoining incarnation
  /// starts with no closures (survivors redo what it had stolen) and no
  /// ledgers, but keeps the id allocator running — reusing a previous life's
  /// ClosureIds would let late messages addressed to the old incarnation
  /// land in the new one's closures.  Stats also survive: they describe the
  /// participant, not the incarnation.
  void reset_for_rejoin() {
    demote_next_();
    register_pending_joins_();
    for (Closure* c : drain_ready_()) pool_.release(c);
    waiting_.for_each([this](Closure* c) { pool_.release(c); });
    waiting_.clear();
    steal_ledger_.clear();
    last_charge_ = 0;
  }

  // ---- Checkpointing (paper §6 future work). ----

  /// Serialize this worker's entire closure state (ready list + waiting
  /// table + id allocator).  Meaningful only at a quiescent instant (no
  /// messages in flight); the runtimes guarantee that.  Not const: lazily
  /// spawned ready closures are materialized (named) so the snapshot is
  /// globally addressable.
  Bytes export_state();

  /// Restore a state exported by a core with the same node id.  The core
  /// must be fresh (no closures, no allocations).
  void import_state(const Bytes& state);

  // ---- Introspection. ----
  // Counts include the fused register.  In lockfree mode the deque size is
  // the Chase–Lev approximate size: exact whenever the caller is externally
  // synchronized with thieves (single-threaded runs, quiescence checks under
  // all core locks), racy-but-harmless otherwise.
  bool has_ready() const noexcept {
    return next_task_ != nullptr ||
           (lockfree_ ? !lockfree_->empty_approx() : !deque_.empty());
  }
  std::size_t ready_count() const noexcept {
    return (next_task_ != nullptr ? 1 : 0) +
           (lockfree_ ? lockfree_->size_approx() : deque_.size());
  }
  /// Registered waiting closures.  Joins register lazily, so this can
  /// undercount until register_pending_joins_ runs; every externally
  /// observable path (export, migration, checkpoints) registers first.
  std::size_t waiting_count() const noexcept { return waiting_.size(); }
  const WorkerStats& stats() const noexcept { return stats_; }
  WorkerStats& stats() noexcept { return stats_; }

  /// Work units reported (via Context::charge) by the most recent execute().
  /// The simulated-distributed runtime converts these to simulated time; the
  /// real-time runtimes ignore them.
  std::uint64_t last_charge() const noexcept { return last_charge_; }

  /// Route application output through Hooks::emit_io (stdout by default).
  void emit_io(const std::string& text);

  // ---- Observability. ----

  /// Attach a trace sink and clock.  Pass nulls to detach.  When
  /// `emit_execute_spans` is false the core skips kExecute records (the
  /// simulated runtime emits its own spans in virtual time, where task cost
  /// is known only after execution).
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock,
                 bool emit_execute_spans = true) {
    trace_ = (shard != nullptr && clock != nullptr) ? shard : nullptr;
    trace_clock_ = clock;
    trace_execute_spans_ = emit_execute_spans;
    exec_traced_ = tracing() && trace_execute_spans_;
  }

  /// Record an instant event on this worker's shard (no-op when detached).
  void trace_instant(obs::EventType type, const ClosureId& id,
                     std::uint64_t arg);

  /// Largest batch a single steal request can carry.
  static constexpr std::uint32_t kMaxStealBatch = 64;

 private:
  friend class Context;
  friend class PoppedTask;

  ClosureId next_id() { return ClosureId{me_, next_seq_++}; }

  /// Shared tail of the spawn overloads: id policy, stats, ready push.
  void finish_spawn_(Closure* c);

  /// Out-of-line cold half of send_argument: count and log a local send
  /// whose target closure does not exist on this worker.
  void local_send_unknown_(const ClosureId& target);

  /// Out-of-line traced variant of execute(): identical semantics plus the
  /// kExecute span, kept out of the inlined hot body.
  void execute_traced_(Closure& closure, const TaskEntry& entry);

  /// Shared tail of local/remote argument delivery: idempotent fill, trace,
  /// and promotion to the ready list when the last argument arrives.
  Deliver fill_waiting_(Closure* c, const ClosureId& target,
                        std::uint16_t slot, Value&& value);

  /// Give a lazily spawned closure its globally valid name.
  void materialize(Closure* c) {
    if (!c->id.valid()) c->id = next_id();
  }

  /// Insert every lazily created (still unregistered) waiting closure into
  /// the waiting table, making it addressable by id.  Cold: called before
  /// migration/export/rejoin and as a one-shot fallback when a hint-less
  /// local send misses the table.  The pool sweep is safe because a live
  /// unregistered join is exactly a slot with a valid id, missing > 0 and
  /// the kNoWaitSlot sentinel: recycled slots have invalid ids, ready and
  /// executing closures have missing == 0, and the sweep never runs
  /// concurrently with spawn/steal mutation (owner thread, cold moments).
  void register_pending_joins_() {
    if (!pending_waiting_) return;
    pool_.for_each_slot([this](Closure* c) {
      if (c->wait_slot == Closure::kNoWaitSlot && c->missing != 0 &&
          c->id.valid()) {
        waiting_.insert(c);  // overwrites the sentinel with the bucket index
      }
    });
    pending_waiting_ = false;
  }

  // ---- Ready-list plumbing: fused register over either deque backend. ----
  // Invariant: the conceptual ready stack is [next_task_?] + deque, and
  // every mutation preserves exactly the order a plain deque would hold, so
  // the register and both backends schedule identically.

  /// Push a newly ready closure at the conceptual stack top.
  void push_ready_(Closure* c) {
    if (fused_) {
      Closure* prev = next_task_;
      next_task_ = c;
      if (prev == nullptr) return;
      c = prev;  // old register occupant sits just below the new top
    }
    deque_push_(c);
  }

  void deque_push_(Closure* c) {
    if (lockfree_) {
      lockfree_->push(c);
      ++owner_size_;
    } else {
      deque_.push(c);
    }
  }

  /// Owner pop from the conceptual stack top (register first).
  Closure* pop_ready_() {
    if (Closure* c = next_task_) {
      next_task_ = nullptr;
      return c;
    }
    return deque_pop_();
  }

  Closure* deque_pop_() {
    if (lockfree_) {
      // owner_size_ is the owner's overestimate of the deque size (pushes
      // minus owner pops; steals only shrink the real size further), so 0
      // means certainly empty — skip Chase–Lev pop's seq_cst fence.
      if (owner_size_ == 0) return nullptr;
      if (auto c = lockfree_->pop()) {
        --owner_size_;
        return *c;
      }
      owner_size_ = 0;  // thieves emptied it; resync the overestimate
      return nullptr;
    }
    return deque_.pop_for_execution();
  }

  /// Move the fused register occupant to the real deque head.  Called
  /// before any operation that must see the full ready list (synchronized
  /// steals, migration, snapshots, orphan aborts).
  void demote_next_() {
    if (next_task_ != nullptr) {
      deque_push_(next_task_);
      next_task_ = nullptr;
    }
  }

  /// Drain the deque head-first (register must already be demoted).
  /// Lockfree callers are externally synchronized with thieves.
  std::vector<Closure*> drain_ready_();

  /// Non-destructive head-first snapshot (register must already be
  /// demoted; lockfree callers externally synchronized).
  Closure* ready_at_(std::size_t i) {
    return lockfree_ ? lockfree_->peek_from_bottom(i) : deque_.at(i);
  }

  /// Take ownership of a wire closure into the pool.  It arrives unflagged:
  /// only install_stolen marks a closure as stolen here.
  Closure* adopt(Closure&& value) {
    Closure* c = pool_.acquire();
    *c = std::move(value);
    c->stolen = false;
    return c;
  }

  void release_closure(Closure* c) { pool_.release(c); }

  bool tracing() const noexcept {
    return trace_ != nullptr && trace_->enabled();
  }
  std::uint64_t trace_now() const { return trace_clock_->now_ns(); }

  net::NodeId me_;
  const TaskRegistry& registry_;
  // Cached copy of the registry's flat dispatch array (base + bound), so
  // execute() costs one indexed load instead of re-deriving both from the
  // vector each task.  Safe because registration completes before any core
  // is constructed (apps register in register_*(), runtimes build cores per
  // job afterwards); a registry that grew mid-job would invalidate this.
  const TaskEntry* task_entries_;
  std::uint32_t task_limit_;
  Hooks hooks_;
  std::uint64_t last_charge_ = 0;
  ClosurePool pool_;
  ReadyDeque deque_;  // guarded ring backend (default)
  std::unique_ptr<ChaseLevDeque<Closure*>> lockfree_;  // lockfree backend
  /// Fused spawn register: the top of the conceptual ready stack.
  Closure* next_task_ = nullptr;
  bool fused_ = false;  // the register is used (kLifo execution only)
  std::size_t owner_size_ = 0;  // lockfree: owner-side size overestimate
  WaitingTable waiting_;
  // Dirty flag: some waiting closures may have been created lazily and not
  // yet inserted into waiting_; see create_waiting /
  // register_pending_joins_.  A flag rather than a count keeps the join
  // promote path free of balance bookkeeping.
  bool pending_waiting_ = false;

  // Most recently created waiting closure; feeds slot_ref's local_hint.
  // Pool storage is never freed, so a stale value is safe to id-check.
  Closure* last_waiting_ = nullptr;
  std::uint64_t next_seq_ = 1;
  WorkerStats stats_;
  obs::TraceShard* trace_ = nullptr;
  const obs::Clock* trace_clock_ = nullptr;
  bool trace_execute_spans_ = true;
  // Cached `tracing() && trace_execute_spans_`, set by set_trace, so the
  // execute() hot body tests one byte.
  bool exec_traced_ = false;

  struct LedgerEntry {
    Closure snapshot;     // full copy: enough to redo the task
    net::NodeId thief;
    std::uint64_t steal_seq = 0;  // the thief's steal call (0: unknown)
  };
  /// Re-enqueue (and erase) every ledger entry `match` accepts.
  template <typename Match>
  std::size_t redo_ledger_if(Match match);
  // Keyed by the stolen closure's id.
  std::unordered_map<ClosureId, LedgerEntry> steal_ledger_;

  // ---- Concurrent-steal victim-side state (lockfree mode only). ----
  // Thieves write these from their own threads; the owner folds/reclaims
  // under the runtime's core lock.
  std::mutex stash_mutex_;
  std::vector<Closure*> stash_;  // stolen pool slots awaiting owner reclaim
  std::atomic<std::size_t> stash_count_{0};
  std::atomic<std::uint64_t> steal_reqs_atomic_{0};
  std::atomic<std::uint64_t> stolen_count_atomic_{0};
  std::atomic<std::uint64_t> stolen_depth_atomic_{0};
};

inline PoppedTask& PoppedTask::operator=(PoppedTask&& other) noexcept {
  if (this != &other) {
    release_();
    closure_ = other.closure_;
    core_ = other.core_;
    other.closure_ = nullptr;
  }
  return *this;
}

inline PoppedTask::~PoppedTask() { release_(); }

inline void PoppedTask::release_() noexcept {
  if (closure_ != nullptr) {
    core_->release_closure(closure_);
    closure_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Hot-path members are defined inline (in the header) so application
// translation units can fold the whole spawn / make-join / send-argument
// cycle into the task functions themselves.  The fine-grain Table 1 column
// is dominated by these few dozen instructions; keeping them out-of-line
// costs a cross-TU call per operation, several per task.  Cold halves
// (tracing, the unknown-closure log) stay in worker_core.cpp.
// ---------------------------------------------------------------------------

inline void WorkerCore::finish_spawn_(Closure* c) {
  // Lazy spawn: no id until a thief / migration / snapshot needs a global
  // name.  Tracing wants named events, so ids are eager under a tracer.
  if (tracing()) c->id = next_id();
  stats_.note_alloc();
  ++stats_.tasks_spawned;
  push_ready_(c);
  if (tracing()) {
    // ready_count() counts the fused register too, so the trace sees the
    // conceptual ready stack, not the backend.
    trace_instant(obs::EventType::kSpawn, c->id, ready_count());
  }
}

inline void WorkerCore::spawn(TaskId task, ArgSlots args, ContRef cont,
                              std::uint32_t depth) {
  Closure* c = pool_.acquire();
  c->task = task;
  c->cont = cont;
  c->args = std::move(args);
  c->missing = 0;
  c->depth = depth;
  finish_spawn_(c);
}

inline void WorkerCore::spawn(TaskId task, std::initializer_list<Value> args,
                              ContRef cont, std::uint32_t depth) {
  Closure* c = pool_.acquire();
  c->task = task;
  c->cont = cont;
  c->args.assign_filled(args);
  c->missing = 0;
  c->depth = depth;
  finish_spawn_(c);
}

inline void WorkerCore::spawn(TaskId task, Value&& arg, const ContRef& cont,
                              std::uint32_t depth) {
  Closure* c = pool_.acquire();
  c->task = task;
  c->cont = cont;
  c->args.assign_filled(std::move(arg));
  c->missing = 0;
  c->depth = depth;
  finish_spawn_(c);
}

inline ClosureId WorkerCore::create_waiting(TaskId task, std::uint16_t nslots,
                                            ContRef cont,
                                            std::uint32_t depth) {
  Closure* c = pool_.acquire();
  // Joins always get an id up front: continuations name them by id.
  c->id = next_id();
  c->task = task;
  c->cont = cont;
  c->args.reset(nslots);
  c->missing = nslots;
  c->depth = depth;
  stats_.note_alloc();
  const ClosureId id = c->id;
  if (nslots == 0) {
    // Degenerate join: ready immediately.
    push_ready_(c);
  } else {
    // Lazy registration: local sends reach the join through the ContRef
    // pool-pointer hint (slot_ref), so the table insert — the single most
    // expensive step of the join cycle — is deferred until something
    // actually needs id-addressability (a hint-less send, migration,
    // export).  register_pending_joins_() sweeps the pool at those points.
    c->wait_slot = Closure::kNoWaitSlot;
    pending_waiting_ = true;
    last_waiting_ = c;
  }
  return id;
}

inline WorkerCore::Deliver WorkerCore::fill_waiting_(Closure* c,
                                                     const ClosureId& target,
                                                     std::uint16_t slot,
                                                     Value&& value) {
  if (!c->fill(slot, std::move(value))) {
    ++stats_.args_duplicate;
    return Deliver::kDuplicate;
  }
  if (tracing()) {
    trace_instant(obs::EventType::kArgRecv, target, slot);
  }
  if (c->ready()) {
    waiting_.erase_entry(c);  // safe no-op for a never-registered join
    push_ready_(c);
    return Deliver::kBecameReady;
  }
  return Deliver::kFilled;
}

inline void WorkerCore::send_argument(const ContRef& cont, Value&& value) {
  ++stats_.synchronizations;
  if (__builtin_expect(tracing(), 0)) {
    trace_instant(obs::EventType::kArgSend, cont.target,
                  cont.home == me_ ? 0 : 1);
  }
  if (cont.home == me_) {
    // Fast path: the ref carries a pool pointer to its target.  Pool
    // storage is never freed while the core lives, so the deref is safe;
    // the id check rejects a recycled (hence renamed) closure.
    Closure* target = cont.local_hint;
    if (__builtin_expect(target != nullptr && target->id == cont.target, 1)) {
      // Hint hit: the fused fill — semantically identical to fill_waiting_
      // (idempotent fill, trace, promote) with the rare outcomes hinted
      // cold, and no Deliver plumbing.
      if (__builtin_expect(!target->fill(cont.slot, std::move(value)), 0)) {
        ++stats_.args_duplicate;
        return;
      }
      if (__builtin_expect(tracing(), 0)) {
        trace_instant(obs::EventType::kArgRecv, cont.target, cont.slot);
      }
      if (target->missing == 0) {
        // erase_entry is a safe no-op for a never-registered join (the
        // kNoWaitSlot sentinel fails its bucket bounds check).
        waiting_.erase_entry(target);
        push_ready_(target);
      }
      return;
    }
    {
      target = waiting_.find(cont.target);
      if (target == nullptr && pending_waiting_) {
        // The target may be a lazily created join whose hint was dropped
        // (e.g. the ContRef crossed a wire encode/decode and came home, or
        // the app stashed a ref made before another join superseded the
        // hint).  Register stragglers and retry once.
        register_pending_joins_();
        target = waiting_.find(cont.target);
      }
    }
    if (__builtin_expect(target != nullptr, 1)) {
      fill_waiting_(target, cont.target, cont.slot, std::move(value));
      return;
    }
    if (hooks_.forward_local_miss &&
        hooks_.forward_local_miss(cont, std::move(value))) {
      ++stats_.args_forwarded;
      return;
    }
    local_send_unknown_(cont.target);
    return;
  }
  ++stats_.non_local_synchs;
  hooks_.send_remote(cont, std::move(value));
}

/// Context: the API surface a running task sees.  Mirrors the calls the Phish
/// preprocessor emitted into application code: spawning children, creating
/// join (waiting) closures, and sending arguments to continuations.
class Context {
 public:
  Context(WorkerCore& core, const Closure& current)
      : core_(core), current_(current) {}

  /// Spawn a ready child task; its result goes to `cont`.  `args` accepts an
  /// initializer list of Values or a std::vector<Value> (both become
  /// ArgSlots, inline-stored up to ArgSlots::kInlineSlots values).
  void spawn(TaskId task, ArgSlots args, const ContRef& cont) {
    core_.spawn(task, std::move(args), cont, current_.depth + 1);
  }
  void spawn(TaskId task, std::initializer_list<Value> args,
             const ContRef& cont) {
    core_.spawn(task, args, cont, current_.depth + 1);
  }
  void spawn(TaskId task, Value arg, const ContRef& cont) {
    core_.spawn(task, std::move(arg), cont, current_.depth + 1);
  }
  void spawn(const std::string& task, ArgSlots args, const ContRef& cont) {
    spawn(core_.registry().id_of(task), std::move(args), cont);
  }

  /// Create a waiting closure (a join point) with `nslots` slots; when all
  /// are filled it runs `task` and sends the result to `cont`.
  ClosureId make_join(TaskId task, std::uint16_t nslots, const ContRef& cont) {
    return core_.create_waiting(task, nslots, cont, current_.depth + 1);
  }
  ClosureId make_join(const std::string& task, std::uint16_t nslots,
                      const ContRef& cont) {
    return make_join(core_.registry().id_of(task), nslots, cont);
  }

  /// Continuation pointing at slot `slot` of a join created here.
  ContRef slot(const ClosureId& join, std::uint16_t s) const {
    return core_.slot_ref(join, s);
  }

  /// Send a value to a continuation (the task's way of "returning").
  void send(const ContRef& cont, Value value) {
    core_.send_argument(cont, std::move(value));
  }

  /// Identity of the executing participant.
  net::NodeId worker() const { return core_.id(); }

  /// Registry lookup for spawning by name once and caching the id.
  TaskId task_id(const std::string& name) const {
    return core_.registry().id_of(name);
  }

  /// Report `units` of application work done by this task.  The simulated
  /// runtime turns the total into simulated compute time; real runtimes
  /// ignore it.  Call once or many times; amounts accumulate.
  void charge(std::uint64_t units) { core_.last_charge_ += units; }

  /// Emit a line of application output through the runtime's I/O channel
  /// (buffered to the Clearinghouse in the distributed runtimes).
  void print(const std::string& text) { core_.emit_io(text); }

 private:
  WorkerCore& core_;
  const Closure& current_;
};

inline void WorkerCore::execute(Closure& closure) {
  // Devirtualized dispatch: one indexed load from the registry's flat entry
  // array (bounds check doubles as wire validation) and one indirect call.
  // The one rare companion, the traced variant, is branch-hinted cold and
  // outlined so the inlined hot body stays a handful of instructions; the
  // extra branches were worth ~3 ns/closure on fine-grain fib.
  if (__builtin_expect(closure.task >= task_limit_, 0)) {
    (void)registry_.entry(closure.task);  // throws std::out_of_range
  }
  const TaskEntry& entry = task_entries_[closure.task];
  last_charge_ = 0;
  if (__builtin_expect(exec_traced_, 0)) {
    execute_traced_(closure, entry);
    return;
  }
  Context ctx(*this, closure);
  entry.fn(ctx, closure, entry.env);
  ++stats_.tasks_executed;
  stats_.executed_depth_total += closure.depth;
  stats_.note_free();
}

}  // namespace phish
