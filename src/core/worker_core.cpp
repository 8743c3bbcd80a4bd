#include "core/worker_core.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/log.hpp"

namespace phish {

WorkerCore::WorkerCore(net::NodeId me, const TaskRegistry& registry,
                       Hooks hooks, const CoreOptions& options)
    : me_(me),
      registry_(registry),
      task_entries_(registry.entries()),
      task_limit_(static_cast<std::uint32_t>(registry.size())),
      hooks_(std::move(hooks)),
      options_(options),
      pool_(options.pooled_alloc),
      deque_(options.exec_order, options.steal_order),
      fused_(options.fused_spawn && options.exec_order == ExecOrder::kLifo) {
  if (!hooks_.send_remote) {
    throw std::invalid_argument("WorkerCore: send_remote hook is required");
  }
  // The Chase–Lev deque is intrinsically LIFO-owner / FIFO-thief; ablation
  // orders keep the guarded ring.
  if (options.lockfree_deque && options.exec_order == ExecOrder::kLifo &&
      options.steal_order == StealOrder::kFifo) {
    lockfree_ = std::make_unique<ChaseLevDeque<Closure*>>();
  }
}

std::vector<Closure*> WorkerCore::drain_ready_() {
  if (!lockfree_) return deque_.drain();
  // Externally synchronized with thieves here; owner pops walk the deque
  // head (bottom) first, matching the guarded drain order.
  std::vector<Closure*> out;
  out.reserve(owner_size_);
  while (auto c = lockfree_->pop()) out.push_back(*c);
  owner_size_ = 0;
  return out;
}

void WorkerCore::local_send_unknown_(const ClosureId& target) {
  ++stats_.args_unknown_closure;
  // On a worker that never redid work, a local send to an unknown closure
  // is a programming error.  After a redo it is the idempotency contract
  // doing its job: the re-executed subtree sends into parents the first
  // (pre-crash) execution already fired and freed — dead-letter quietly.
  if (stats_.tasks_redone > 0) {
    PHISH_LOG(kDebug) << "dead-letter: duplicate local send to "
                      << to_string(target) << " after redo";
    return;
  }
  PHISH_LOG(kError) << "local send to unknown closure " << to_string(target);
}

std::optional<Closure> WorkerCore::try_steal(net::NodeId thief) {
  std::vector<Closure> got = try_steal_batch(thief, 1);
  if (got.empty()) return std::nullopt;
  return std::move(got.front());
}

std::vector<Closure> WorkerCore::try_steal_batch(net::NodeId thief,
                                                 std::uint32_t max_tasks,
                                                 std::uint64_t steal_seq) {
  ++stats_.steal_requests_received;
  std::vector<Closure> out;
  if (max_tasks == 0) return out;
  if (max_tasks > kMaxStealBatch) max_tasks = kMaxStealBatch;
  // Externally synchronized with the owner (the runtimes' contract for this
  // call), so the fused register can be demoted and the full list stolen
  // from — semantics identical to the unfused guarded deque.
  demote_next_();
  Closure* taken[kMaxStealBatch];
  std::size_t got = 0;
  if (lockfree_) {
    std::size_t want = lockfree_->size_approx() / 2;
    if (want < 1) want = 1;
    if (want > max_tasks) want = max_tasks;
    while (got < want) {
      auto c = lockfree_->steal();
      if (!c) break;
      taken[got++] = *c;
    }
  } else {
    got = deque_.pop_for_steal_batch(taken, max_tasks);
  }
  out.reserve(got);
  for (std::size_t i = 0; i < got; ++i) {
    Closure* c = taken[i];
    materialize(c);
    ++stats_.tasks_stolen_from_me;
    stats_.stolen_depth_total += c->depth;
    stats_.note_free();  // it leaves this worker
    // Record a redo snapshot in case the thief dies before completing it.
    steal_ledger_.emplace(c->id, LedgerEntry{*c, thief, steal_seq});
    if (tracing()) {
      trace_instant(obs::EventType::kStealServed, c->id, ready_count());
    }
    out.push_back(std::move(*c));
    pool_.release(c);
  }
  return out;
}

std::size_t WorkerCore::steal_concurrent(std::vector<Closure>& out,
                                         std::uint32_t max_tasks) {
  steal_reqs_atomic_.fetch_add(1, std::memory_order_relaxed);
  if (!lockfree_ || max_tasks == 0) return 0;
  if (max_tasks > kMaxStealBatch) max_tasks = kMaxStealBatch;
  std::size_t want = lockfree_->size_approx() / 2;  // steal-half
  if (want < 1) want = 1;
  if (want > max_tasks) want = max_tasks;
  Closure* taken[kMaxStealBatch];
  std::size_t got = 0;
  while (got < want) {
    auto c = lockfree_->steal();
    if (!c) break;
    taken[got++] = *c;
  }
  if (got == 0) return 0;
  std::uint64_t depth_total = 0;
  out.reserve(out.size() + got);
  for (std::size_t i = 0; i < got; ++i) {
    out.push_back(*taken[i]);  // by value: the slot stays in the victim pool
    depth_total += taken[i]->depth;
  }
  {
    std::lock_guard<std::mutex> lock(stash_mutex_);
    stash_.insert(stash_.end(), taken, taken + got);
  }
  stash_count_.fetch_add(got, std::memory_order_release);
  stolen_count_atomic_.fetch_add(got, std::memory_order_relaxed);
  stolen_depth_atomic_.fetch_add(depth_total, std::memory_order_relaxed);
  return got;
}

void WorkerCore::reclaim_stolen_slots() {
  if (stash_count_.load(std::memory_order_acquire) != 0) {
    std::vector<Closure*> parked;
    {
      std::lock_guard<std::mutex> lock(stash_mutex_);
      parked.swap(stash_);
    }
    stash_count_.fetch_sub(parked.size(), std::memory_order_release);
    for (Closure* c : parked) pool_.release(c);
  }
  stats_.steal_requests_received +=
      steal_reqs_atomic_.exchange(0, std::memory_order_relaxed);
  const std::uint64_t n =
      stolen_count_atomic_.exchange(0, std::memory_order_relaxed);
  stats_.tasks_stolen_from_me += n;
  stats_.stolen_depth_total +=
      stolen_depth_atomic_.exchange(0, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < n; ++i) stats_.note_free();
}

void WorkerCore::install_stolen(Closure closure) {
  ++stats_.tasks_stolen_by_me;
  stats_.note_alloc();
  Closure* c = adopt(std::move(closure));
  // A concurrently stolen closure can arrive unnamed (lazy spawn; thieves
  // cannot touch the victim's id allocator): name it from this core's own
  // band, which is globally unique.  Synchronized steals always arrive
  // named (the victim materialized), so this is a no-op for them.
  materialize(c);
  // Its result is claimed at cont.home: if that participant dies while the
  // task is still queued here, handle_participant_death aborts it.
  c->stolen = true;
  push_ready_(c);
  if (tracing()) {
    trace_instant(obs::EventType::kStealSuccess, c->id, ready_count());
  }
}

void WorkerCore::note_steal_request_sent() {
  ++stats_.steal_requests_sent;
  if (tracing()) {
    trace_instant(obs::EventType::kStealRequest, ClosureId{}, 0);
  }
}

void WorkerCore::note_steal_failed() {
  ++stats_.failed_steals;
  if (tracing()) {
    trace_instant(obs::EventType::kStealFail, ClosureId{}, 0);
  }
}

WorkerCore::Deliver WorkerCore::deliver_remote(const ClosureId& target,
                                               std::uint16_t slot,
                                               Value value) {
  Closure* c = waiting_.find(target);
  if (c == nullptr && pending_waiting_) {
    // Network sends carry no pool-pointer hint; a lazily created join must
    // be registered before it can be found by id.
    register_pending_joins_();
    c = waiting_.find(target);
  }
  if (c == nullptr) {
    ++stats_.args_unknown_closure;
    return Deliver::kUnknown;
  }
  return fill_waiting_(c, target, slot, std::move(value));
}

std::vector<Closure> WorkerCore::drain_for_migration() {
  std::vector<Closure> out;
  demote_next_();
  register_pending_joins_();  // the receiving worker addresses joins by id
  for (Closure* c : drain_ready_()) {
    materialize(c);  // the receiving worker addresses these by id
    out.push_back(std::move(*c));
    pool_.release(c);
  }
  waiting_.for_each([&](Closure* c) {
    out.push_back(std::move(*c));
    pool_.release(c);
  });
  waiting_.clear();
  stats_.tasks_migrated_out += out.size();
  for (std::size_t i = 0; i < out.size(); ++i) stats_.note_free();
  if (tracing()) {
    trace_instant(obs::EventType::kMigrateOut, ClosureId{}, out.size());
  }
  return out;
}

void WorkerCore::install_migrated(Closure closure) {
  stats_.note_alloc();
  Closure* c = adopt(std::move(closure));
  if (tracing()) {
    trace_instant(obs::EventType::kMigrateIn, c->id, 0);
  }
  if (c->ready()) {
    push_ready_(c);
  } else {
    waiting_.insert(c);
  }
}

void WorkerCore::install_migration_redo(Closure closure) {
  ++stats_.tasks_migration_redone;
  stats_.note_alloc();
  Closure* c = adopt(std::move(closure));
  if (tracing()) {
    trace_instant(obs::EventType::kMigrationRedo, c->id, 0);
  }
  if (c->ready()) {
    push_ready_(c);
  } else {
    waiting_.insert(c);
  }
}

std::vector<proto::MigrantLedgerEntry> WorkerCore::export_steal_ledger() {
  std::vector<proto::MigrantLedgerEntry> out;
  out.reserve(steal_ledger_.size());
  for (auto& [id, entry] : steal_ledger_) {
    out.push_back(
        proto::MigrantLedgerEntry{entry.thief, std::move(entry.snapshot)});
  }
  steal_ledger_.clear();
  return out;
}

void WorkerCore::adopt_migrant_ledger(net::NodeId thief, Closure snapshot,
                                      bool thief_dead) {
  if (thief_dead) {
    // The thief's death notice predates this adoption; redo now or never.
    stats_.note_alloc();
    ++stats_.tasks_redone;
    ++stats_.tasks_migration_redone;
    if (tracing()) {
      trace_instant(obs::EventType::kRedo, snapshot.id, thief.value);
    }
    push_ready_(adopt(std::move(snapshot)));
    return;
  }
  const ClosureId id = snapshot.id;
  steal_ledger_.emplace(id, LedgerEntry{std::move(snapshot), thief});
}

template <typename Match>
std::size_t WorkerCore::redo_ledger_if(Match match) {
  std::size_t redone = 0;
  for (auto it = steal_ledger_.begin(); it != steal_ledger_.end();) {
    if (match(it->second)) {
      stats_.note_alloc();
      ++stats_.tasks_redone;
      if (tracing()) {
        trace_instant(obs::EventType::kRedo, it->first,
                      it->second.thief.value);
      }
      push_ready_(adopt(std::move(it->second.snapshot)));
      it = steal_ledger_.erase(it);
      ++redone;
    } else {
      ++it;
    }
  }
  return redone;
}

std::size_t WorkerCore::redo_steal(net::NodeId thief,
                                   std::uint64_t steal_seq) {
  return redo_ledger_if([&](const LedgerEntry& e) {
    return e.thief == thief && e.steal_seq == steal_seq;
  });
}

std::size_t WorkerCore::handle_participant_death(net::NodeId dead) {
  // The fused register could hold an orphan (a stolen task is installed into
  // the register like any other push); demote so removal sees everything.
  demote_next_();
  // 1. Redo: tasks the dead participant stole from us are re-enqueued from
  //    their ledger snapshots.  Slot fill-flags downstream make any work the
  //    thief completed before dying idempotent.
  const std::size_t redone =
      redo_ledger_if([&](const LedgerEntry& e) { return e.thief == dead; });
  // 2. Abort orphans: queued tasks we stole whose results would go to
  //    closures on the dead participant.  Running or completed ones are
  //    harmless (their sends dead-letter).  One filtered pass: drain the
  //    list head first, re-push the survivors tail first so they keep their
  //    order.  Demote again: step 1's pushes may have refilled the register.
  //    Lockfree callers are externally synchronized with thieves.
  demote_next_();
  std::vector<Closure*> queued = drain_ready_();
  for (auto it = queued.rbegin(); it != queued.rend(); ++it) {
    Closure* c = *it;
    if (c->stolen && c->cont.home == dead) {
      stats_.note_free();
      pool_.release(c);
    } else {
      deque_push_(c);
    }
  }
  return redone;
}

Bytes WorkerCore::export_state() {
  Writer w;
  w.u32(me_.value);
  // The fused register is part of the ready list; demoting it to the deque
  // head preserves the conceptual stack order in the snapshot.
  demote_next_();
  register_pending_joins_();  // snapshots are addressed globally
  const std::size_t nready = ready_count();
  // Snapshots are addressed globally, so every lazily spawned closure gets
  // its name now — before next_seq_ is recorded, so the restored allocator
  // cannot reissue the ids just handed out.
  for (std::size_t i = 0; i < nready; ++i) materialize(ready_at_(i));
  w.u64(next_seq_);
  // Ready tasks, head to tail (re-pushing in reverse order restores them).
  w.u32(static_cast<std::uint32_t>(nready));
  for (std::size_t i = 0; i < nready; ++i) ready_at_(i)->encode(w);
  w.u32(static_cast<std::uint32_t>(waiting_.size()));
  waiting_.for_each([&w](Closure* c) { c->encode(w); });
  return w.take();
}

void WorkerCore::import_state(const Bytes& state) {
  if (has_ready() || !waiting_.empty()) {
    throw std::logic_error("WorkerCore::import_state: core not fresh");
  }
  Reader r(state);
  const net::NodeId origin{r.u32()};
  if (origin != me_) {
    throw std::invalid_argument(
        "WorkerCore::import_state: state belongs to " + net::to_string(origin));
  }
  next_seq_ = r.u64();
  const std::uint32_t ready_count = r.u32();
  std::vector<Closure> ready;
  ready.reserve(ready_count);
  for (std::uint32_t i = 0; i < ready_count && r.ok(); ++i) {
    ready.push_back(Closure::decode(r));
  }
  // Encoded head-first; push back-to-front so the head ends up at the head.
  for (auto it = ready.rbegin(); it != ready.rend(); ++it) {
    stats_.note_alloc();
    push_ready_(adopt(std::move(*it)));
  }
  const std::uint32_t waiting_count = r.ok() ? r.u32() : 0;
  for (std::uint32_t i = 0; i < waiting_count && r.ok(); ++i) {
    Closure c = Closure::decode(r);
    if (!r.ok()) break;
    stats_.note_alloc();
    waiting_.insert(adopt(std::move(c)));
  }
  if (!r.done()) {
    throw std::invalid_argument("WorkerCore::import_state: corrupt state");
  }
}

void WorkerCore::execute_traced_(Closure& closure, const TaskEntry& entry) {
  const bool span = tracing() && trace_execute_spans_;
  const std::uint64_t t_start = span ? trace_now() : 0;
  Context ctx(*this, closure);
  entry.fn(ctx, closure, entry.env);
  ++stats_.tasks_executed;
  stats_.executed_depth_total += closure.depth;
  stats_.note_free();
  if (span) {
    obs::TraceEvent e = obs::make_event(
        obs::EventType::kExecute, static_cast<std::uint16_t>(me_.value),
        t_start);
    e.t_end = trace_now();
    e.closure_origin = closure.id.origin.value;
    e.closure_seq = closure.id.seq;
    e.arg = ready_count();
    trace_->emit(e);
  }
}

void WorkerCore::emit_io(const std::string& text) {
  if (hooks_.emit_io) {
    hooks_.emit_io(text);
  } else {
    std::fputs((text + "\n").c_str(), stdout);
  }
}

void WorkerCore::trace_instant(obs::EventType type, const ClosureId& id,
                               std::uint64_t arg) {
  if (!tracing()) return;
  obs::TraceEvent e = obs::make_event(
      type, static_cast<std::uint16_t>(me_.value), trace_now());
  if (id.valid()) {
    e.closure_origin = id.origin.value;
    e.closure_seq = id.seq;
  }
  e.arg = arg;
  trace_->emit(e);
}

}  // namespace phish
