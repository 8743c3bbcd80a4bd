#include "runtime/node/worker_node.hpp"

#include <algorithm>
#include <sstream>

#include "util/log.hpp"

namespace phish::rt {

void WorkerNode::PeriodicTimer::start(std::uint64_t initial_delay) {
  stop();
  arm(initial_delay);
}

void WorkerNode::PeriodicTimer::stop() {
  ++generation_;
  if (pending_.valid()) {
    timers_.cancel(pending_);
    pending_ = net::TimerToken{};
  }
}

void WorkerNode::PeriodicTimer::arm(std::uint64_t delay) {
  // The generation check makes stop() exact even where cancel is only
  // best-effort (a real timer thread may already have fired the tick).
  const std::uint64_t gen = ++generation_;
  pending_ = timers_.schedule(delay, [this, gen] {
    if (gen != generation_) return;
    pending_ = net::TimerToken{};
    on_tick_();
    if (gen == generation_) arm(period_);  // on_tick_ may have stopped us
  });
}

WorkerNode::WorkerNode(net::Channel& channel, net::TimerService& timers,
                       const TaskRegistry& registry, net::NodeId me,
                       std::vector<net::NodeId> clearinghouse,
                       const NodeParams& params, std::uint64_t seed,
                       ExecOrder exec_order, StealOrder steal_order,
                       Driver& driver)
    : timers_(timers),
      driver_(driver),
      me_(me),
      clearinghouse_(clearinghouse.front()),
      params_(params),
      rng_(mix64(seed ^ me.value)),
      rpc_(channel, timers),
      client_(rpc_, std::move(clearinghouse)),
      core_(me, registry,
            [this] {
              WorkerCore::Hooks hooks;
              hooks.send_remote = [this](const ContRef& cont, Value value) {
                Bytes payload =
                    proto::ArgumentMsg{cont, std::move(value)}.encode();
                driver_.charge_send(payload.size());
                driver_.send_from_task([this, home = cont.home,
                                        p = std::move(payload)] {
                  if (client_.is_replica(home)) {
                    // The job result must survive loss and coordinator
                    // failover: deliver via RPC through the replica ring,
                    // which retransmits until acknowledged.
                    client_.call(proto::kRpcResult, p, [](net::RpcResult) {},
                                 params_.rpc_policy);
                  } else {
                    rpc_.send_oneway(home, proto::kArgument, p);
                  }
                });
              };
              hooks.forward_local_miss = [this](const ContRef& cont,
                                                Value&& value) {
                // A locally-homed fill whose target closure left with a
                // previous life's migrated cargo (owner reclaim, then this
                // incarnation rejoined) must chase it through the same
                // forwarding stub remote arrivals use; mid-drain it buffers
                // in the fill log until the successor confirms.
                if (state_ != State::kDeparting && !forward_to_.valid()) {
                  return false;
                }
                driver_.send_from_task(
                    [this, arg = proto::ArgumentMsg{cont, std::move(value)}] {
                      log_and_forward_fill(arg);
                    });
                return true;
              };
              hooks.emit_io = [this](const std::string& text) {
                driver_.send_from_task([this, text] { emit_io(text); });
              };
              return hooks;
            }(),
            exec_order, steal_order),
      heartbeat_timer_(timers, params.heartbeat_period,
                       [this] {
                         // Every replica hears heartbeats, so a promoted
                         // standby starts with a warm liveness map.
                         client_.send_oneway_all(proto::kHeartbeat, {});
                       }),
      update_timer_(timers, params.update_period,
                    [this] { refresh_membership(); }) {
  rpc_.set_jitter_seed(mix64(seed ^ 0x6a77'7e12'0badULL ^ me.value));
  rpc_.set_oneway_handler(
      [this](net::Message&& m) { handle_oneway(std::move(m)); });
  rpc_.serve(proto::kRpcSteal, [this](net::NodeId, const Bytes& args) {
    return serve_steal(args);
  });
  rpc_.serve(proto::kRpcControl, [this](net::NodeId, const Bytes& args) {
    return handle_control(args);
  });
  rpc_.serve(proto::kRpcMigrate, [this](net::NodeId, const Bytes& args) {
    return serve_migrate(args);
  });
}

void WorkerNode::start() {
  if (state_ != State::kCreated) return;
  state_ = State::kRegistering;
  start_time_ = timers_.now_ns();
  client_.call(proto::kRpcRegister,
               proto::RegisterMsg{incarnation_, known_epoch_}.encode(),
               [this, inc = incarnation_,
                since = known_epoch_](net::RpcResult result) {
                 if (incarnation_ != inc) return;  // a past life's callback
                 if (state_ != State::kRegistering) return;
                 on_registered(std::move(result), since);
               },
               params_.rpc_policy);
}

void WorkerNode::on_registered(net::RpcResult result, std::uint64_t since) {
  if (!result.ok) {
    // Exponential backoff with seeded jitter: a rack coming back to life
    // must not re-register in lockstep (register storm).
    register_backoff_ =
        register_backoff_ == 0
            ? params_.register_backoff
            : std::min(register_backoff_ * 2, params_.register_backoff_max);
    const std::uint64_t jitter = rng_.below(register_backoff_ / 2 + 1);
    PHISH_LOG(kWarn) << net::to_string(me_)
                     << ": registration failed; retrying in "
                     << (register_backoff_ + jitter) / 1'000'000 << " ms";
    state_ = State::kCreated;
    timers_.schedule(register_backoff_ + jitter, [this] { start(); });
    return;
  }
  register_backoff_ = 0;
  // The reply format follows what we presented: a nonzero known epoch opted
  // into a delta, first contact gets the full snapshot.
  if (!apply_membership(result.reply, since)) return;
  state_ = State::kActive;
  activate();
}

bool WorkerNode::apply_membership(const Bytes& reply, std::uint64_t since) {
  const auto replace_peers = [this](const std::vector<net::NodeId>& all) {
    peers_.clear();
    for (net::NodeId p : all) {
      if (p != me_) peers_.push_back(p);
    }
  };
  if (since == 0) {
    auto membership = proto::Membership::decode(reply);
    if (!membership) return false;
    known_epoch_ = membership->epoch;
    replace_peers(membership->participants);
    return true;
  }
  auto update = proto::MembershipUpdate::decode(reply);
  if (!update) return false;
  known_epoch_ = update->epoch;
  if (update->full) {
    replace_peers(update->participants);
    return true;
  }
  for (net::NodeId gone : update->left) {
    peers_.erase(std::remove(peers_.begin(), peers_.end(), gone),
                 peers_.end());
  }
  for (net::NodeId p : update->joined) {
    if (p != me_ && std::find(peers_.begin(), peers_.end(), p) == peers_.end()) {
      peers_.push_back(p);
    }
  }
  return true;
}

void WorkerNode::activate() {
  // A zero period disables the timer (e.g. measurement runs that model the
  // paper's Phish, which had no heartbeats).
  if (params_.heartbeat_period > 0) heartbeat_timer_.start(1);
  if (params_.update_period > 0) update_timer_.start();
  if (root_) {
    core_.spawn(root_->first, std::move(root_->second),
                clearinghouse_continuation(clearinghouse_), 0);
    root_.reset();
  }
  if (restore_state_) {
    core_.import_state(*restore_state_);
    restore_state_.reset();
  }
  driver_.schedule_step(0);
}

void WorkerNode::steal_if_idle() {
  // With a steal in flight, its reply callback schedules the next step.
  if (state_ != State::kActive || steal_in_flight_) return;
  std::optional<net::NodeId> victim = pick_victim();
  if (!victim) {
    // Nobody to steal from yet; refresh membership and retry.
    ++consecutive_failed_steals_;
    core_.note_steal_request_sent();
    core_.note_steal_failed();
    if (consecutive_failed_steals_ >= params_.max_failed_steals) {
      depart(DepartReason::kParallelismShrank);
      return;
    }
    refresh_membership();
    driver_.schedule_step(params_.steal_retry_delay);
    return;
  }
  steal_in_flight_ = true;
  steal_sent_at_ = timers_.now_ns();
  core_.note_steal_request_sent();
  const std::uint16_t max_tasks = static_cast<std::uint16_t>(
      params_.steal_batch < 1 ? 1 : params_.steal_batch);
  const std::uint64_t seq = ++steal_seq_;
  const Bytes payload = proto::StealRequest{me_, max_tasks, seq}.encode();
  driver_.charge_send(payload.size());
  rpc_.call(
      *victim, proto::kRpcSteal, payload,
      [this, v = *victim, seq](net::RpcResult result) {
        on_steal_reply(v, seq, std::move(result));
      },
      params_.rpc_policy);
}

void WorkerNode::on_steal_reply(net::NodeId victim, std::uint64_t steal_seq,
                                net::RpcResult result) {
  steal_in_flight_ = false;
  if (state_ != State::kActive) return;
  driver_.charge_recv();

  bool got_task = false;
  if (result.ok) {
    auto reply = proto::StealReply::decode(result.reply);
    if (reply && !reply->tasks.empty()) {
      for (Closure& c : reply->tasks) core_.install_stolen(std::move(c));
      steal_latency_.observe(timers_.now_ns() - steal_sent_at_);
      if (tracker_ != nullptr) tracker_->note_steal(timers_.now_ns());
      got_task = true;
    }
  } else {
    // The victim may have served this steal and lost every reply (or served
    // it after our call gave up): we are alive, so no death notice will redo
    // it.  Cancel it; the victim redoes whatever it served.
    const Bytes cancel =
        proto::ControlMsg{proto::ControlMsg::kStealCancel, me_, steal_seq}
            .encode();
    driver_.charge_send(cancel.size());
    rpc_.call(victim, proto::kRpcControl, cancel, [](net::RpcResult) {},
              params_.rpc_policy);
    // Victim unreachable — it may be gone; refresh our view.
    refresh_membership();
  }

  if (pending_evict_) {
    // The deferred eviction (owner reclaim or preemption) fires now; any
    // closure installed above migrates out through the departure path.
    const DepartReason reason = *pending_evict_;
    pending_evict_.reset();
    depart(reason);
    return;
  }
  if (got_task) {
    consecutive_failed_steals_ = 0;
    driver_.schedule_step(0);
    return;
  }
  core_.note_steal_failed();
  if (++consecutive_failed_steals_ >= params_.max_failed_steals) {
    depart(DepartReason::kParallelismShrank);
    return;
  }
  // A stale membership view can hide the participants that actually have
  // work (e.g. one that registered after our snapshot); refresh it every few
  // consecutive failures rather than waiting out the full update period.
  if (consecutive_failed_steals_ % 8 == 0) refresh_membership();
  driver_.schedule_step(params_.steal_retry_delay);
}

Bytes WorkerNode::serve_steal(const Bytes& args) {
  auto request = proto::StealRequest::decode(args);
  proto::StealReply reply;
  // Only an active worker serves thieves: a departing one is draining every
  // closure it holds into the migration cargo, and a steal racing the drain
  // would fork ownership.
  if (request && state_ == State::kActive &&
      cancelled_steals_.count({request->thief.value, request->seq}) == 0) {
    reply.tasks = core_.try_steal_batch(request->thief, request->max_tasks,
                                        request->seq);
  }
  Bytes encoded = reply.encode();
  // Victim pays for receiving the request and sending the reply.
  driver_.charge_recv();
  driver_.charge_send(encoded.size());
  return encoded;
}

void WorkerNode::handle_oneway(net::Message&& message) {
  switch (message.type) {
    case proto::kArgument: {
      auto arg = proto::ArgumentMsg::decode(message.payload);
      if (!arg) return;
      if (state_ == State::kDeparted) {
        // Forwarding stub: our closures moved.  Log the fill (a later
        // kReroute must be able to replay it at a redelivered holder) and
        // pass it along.
        if (forward_to_.valid()) log_and_forward_fill(std::move(*arg));
        return;
      }
      if (terminated()) return;
      driver_.charge_recv();
      // Only a departing worker or a residual stub may need the value again
      // (to forward); everyone else moves it straight into the closure.
      const bool may_forward =
          state_ == State::kDeparting || forward_to_.valid();
      const auto outcome =
          may_forward ? core_.deliver_remote(arg->cont.target, arg->cont.slot,
                                             arg->value)
                      : core_.deliver_remote(arg->cont.target, arg->cont.slot,
                                             std::move(arg->value));
      if (outcome == WorkerCore::Deliver::kBecameReady &&
          state_ == State::kActive) {
        driver_.schedule_step(0);
      }
      if (outcome == WorkerCore::Deliver::kUnknown && may_forward) {
        // Post-drain fill (the target is in the departing cargo; buffered
        // until the successor confirms) or residual-stub fill (the target
        // left with a previous life's cargo): follow the cargo.
        log_and_forward_fill(std::move(*arg));
      }
      break;
    }
    case proto::kShutdown:
      finish_job();
      break;
    default:  // cargo moves over the acked kRpcMigrate, never a oneway
      PHISH_LOG(kDebug) << net::to_string(me_) << ": unexpected message type "
                        << message.type;
  }
}

Bytes WorkerNode::handle_control(const Bytes& args) {
  // Acked control plane (death notices, new-primary announcements).  The
  // RPC reply is the ack; an empty body is all the caller needs.
  auto msg = proto::ControlMsg::decode(args);
  if (!msg) return {};
  switch (msg->kind) {
    case proto::ControlMsg::kDeadNotice:
      apply_death(msg->who);
      break;
    case proto::ControlMsg::kNewPrimary:
      client_.adopt(msg->who, msg->view);
      break;
    case proto::ControlMsg::kReroute:
      // The Clearinghouse redelivered our migrated cargo to `who`: re-target
      // the forwarding stub and replay every fill logged since the drain —
      // the redelivered snapshot predates them (duplicates are idempotent).
      if (msg->who.valid() && msg->who != me_) {
        forward_to_ = msg->who;
        flushed_fills_ = 0;
        flush_fill_log();
      }
      break;
    case proto::ControlMsg::kStealCancel:
      // The thief's call gave up: what we served it was never installed.
      // Redo exactly that steal, and refuse the request if it arrives late.
      cancelled_steals_.emplace(msg->who.value, msg->view);
      if (core_.redo_steal(msg->who, msg->view) > 0 &&
          state_ == State::kActive) {
        driver_.schedule_step(0);
      }
      break;
    case proto::ControlMsg::kMigrationRetired:
      // Ledger entry msg->view is gone (holder finished the cargo or
      // re-snapshotted it with all fills applied): once no migration of
      // ours remains outstanding, no kReroute can ever replay the fill
      // log, so release it instead of retaining it forever.
      outstanding_migrations_.erase(msg->view);
      if (outstanding_migrations_.empty()) {
        fill_log_.clear();
        flushed_fills_ = 0;
      }
      break;
    default:
      break;
  }
  return {};
}

void WorkerNode::apply_death(net::NodeId dead) {
  ever_died_.insert(dead.value);
  if (terminated() || dead == me_) return;
  peers_.erase(std::remove(peers_.begin(), peers_.end(), dead), peers_.end());
  const std::size_t redone = core_.handle_participant_death(dead);
  if (redone > 0 && state_ == State::kActive) driver_.schedule_step(0);
  // During kDeparting the redo snapshots just landed in a drained core; the
  // handshake's next confirm loops back through begin_migration_round, which
  // packages them into a fresh migration round.
}

void WorkerNode::evict(DepartReason reason) {
  if (state_ == State::kDeparting || terminated()) return;
  // An in-flight steal may yet deliver a closure (possibly on a
  // retransmitted reply).  The victim's ledger only redoes work for thieves
  // that die, so departing now would strand it; wait for the reply and let
  // the closure migrate out with the rest.
  if (steal_in_flight_) {
    pending_evict_ = reason;
    return;
  }
  depart(reason);
}

void WorkerNode::depart(DepartReason reason) {
  if (state_ == State::kDeparting || terminated()) return;
  depart_reason_ = reason;
  core_.trace_instant(obs::EventType::kReclaim, ClosureId{},
                      reason == DepartReason::kOwnerReclaimed ? 1
                      : reason == DepartReason::kPreempted    ? 2
                                                              : 0);
  // Heartbeats keep running through the handshake: if we crash mid-departure
  // the failure detector must still fire, and if we finish cleanly the
  // unregister retires us before any timeout.
  state_ = State::kDeparting;
  begin_migration_round();
}

namespace {

/// A migration-ledger or handoff reply: a leading boolean "accepted".
bool accepted(const net::RpcResult& result) {
  if (!result.ok) return false;
  Reader r(result.reply);
  return r.boolean() && r.ok();
}

}  // namespace

void WorkerNode::begin_migration_round() {
  if (state_ != State::kDeparting) return;
  // Drain everything a crash of this worker (or of the successor) would
  // lose: remaining closures AND the steal ledger — the successor inherits
  // the victim role for our thieves' outstanding work.
  std::vector<Closure> cargo = core_.drain_for_migration();
  std::vector<proto::MigrantLedgerEntry> ledger = core_.export_steal_ledger();
  if (cargo.empty() && ledger.empty()) {
    finalize_depart();
    return;
  }
  const std::uint64_t mid =
      (static_cast<std::uint64_t>(me_.value) << 32) | next_mig_seq_++;
  // Step 1: register the cargo snapshot with the Clearinghouse BEFORE any
  // handoff.  From here on, a crash of ours or the successor's is
  // recoverable: the coordinator redelivers from the ledger.
  const Bytes payload =
      proto::MigrationLedgerMsg{mid, me_, me_, cargo, ledger}.encode();
  driver_.charge_send(payload.size());
  client_.call(
      proto::kRpcMigrateLedger, payload,
      [this, inc = incarnation_, mid, cargo = std::move(cargo),
       ledger = std::move(ledger)](net::RpcResult result) mutable {
        if (incarnation_ != inc || state_ != State::kDeparting) return;
        if (!accepted(result)) {
          finalize_depart("migration ledger unreachable");
          return;
        }
        // The ledger entry exists from here until the coordinator retires
        // it (even if the handoff below is abandoned): retain the fill log
        // for a possible kReroute replay until the retirement notice.
        outstanding_migrations_.insert(mid);
        try_handoff(mid, std::move(cargo), std::move(ledger), peers_);
      },
      params_.rpc_policy);
}

void WorkerNode::try_handoff(std::uint64_t mid, std::vector<Closure> cargo,
                             std::vector<proto::MigrantLedgerEntry> ledger,
                             std::vector<net::NodeId> candidates) {
  if (state_ != State::kDeparting) return;
  if (candidates.empty()) {
    // Nobody accepted.  The ledger is registered with us as holder, so our
    // (suppressed-unregister) death hands the cargo to the coordinator's
    // redelivery path instead of losing it.
    finalize_depart("no successor accepted the cargo");
    return;
  }
  const std::size_t pick = rng_.below(candidates.size());
  const net::NodeId successor = candidates[pick];
  candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  const Bytes payload =
      proto::MigrateMsg{me_, cargo, mid, /*redelivery=*/false, ledger}
          .encode();
  driver_.charge_send(payload.size());
  // Step 2: acked handoff — the cargo is only considered placed once the
  // successor's reply says it installed it.
  rpc_.call(
      successor, proto::kRpcMigrate, payload,
      [this, inc = incarnation_, mid, successor, cargo = std::move(cargo),
       ledger = std::move(ledger),
       candidates = std::move(candidates)](net::RpcResult result) mutable {
        if (incarnation_ != inc || state_ != State::kDeparting) return;
        if (!accepted(result)) {
          // Unreachable, departing, or dead: try the next candidate.
          try_handoff(mid, std::move(cargo), std::move(ledger),
                      std::move(candidates));
          return;
        }
        forward_to_ = successor;
        flush_fill_log();
        confirm_holder(mid, successor);
      },
      params_.rpc_policy);
}

void WorkerNode::confirm_holder(std::uint64_t mid, net::NodeId holder) {
  if (state_ != State::kDeparting) return;
  // Step 3: atomically transfer redo ownership — after this ack the
  // coordinator watches the successor, not us, for this cargo.
  client_.call(
      proto::kRpcMigrateLedger,
      proto::MigrationLedgerMsg{mid, me_, holder, {}, {}}.encode(),
      [this, inc = incarnation_](net::RpcResult result) {
        if (incarnation_ != inc || state_ != State::kDeparting) return;
        if (!accepted(result)) {
          // The successor holds the cargo but the coordinator still lists
          // us: die noisily (no unregister) so it redelivers; the duplicate
          // execution is idempotent at the joins.
          finalize_depart("holder confirmation unreachable");
          return;
        }
        // A death notice that arrived mid-handshake re-enqueued redo
        // snapshots into the drained core: run another round for them.
        begin_migration_round();
      },
      params_.rpc_policy);
}

void WorkerNode::end_life(State how) {
  state_ = how;
  end_time_ = timers_.now_ns();
  heartbeat_timer_.stop();
  update_timer_.stop();
}

void WorkerNode::finalize_depart(const char* failure) {
  if (failure != nullptr) {
    PHISH_LOG(kWarn) << net::to_string(me_) << ": departing but " << failure
                     << "; skipping unregister so the failure detector "
                        "triggers the redo path";
  }
  end_life(State::kDeparted);
  send_stats_and_unregister(/*unregister=*/failure == nullptr);
  notify_terminated();
  if (pending_rejoin_) {
    pending_rejoin_ = false;
    rejoin();
  }
}

void WorkerNode::log_and_forward_fill(proto::ArgumentMsg arg) {
  if (arg.ttl == 0) return;  // forwarding-cycle guard: drop, let redo cover
  --arg.ttl;
  if (forward_to_.valid() && outstanding_migrations_.empty()) {
    // Every ledger entry we originated is retired, so no kReroute can ever
    // ask for a replay: forward without retaining.  (With no successor yet
    // the fill must still be buffered below, retirement or not.)
    rpc_.send_oneway(forward_to_, proto::kArgument, arg.encode());
    return;
  }
  fill_log_.push_back(arg.encode());
  flush_fill_log();
}

void WorkerNode::flush_fill_log() {
  if (!forward_to_.valid()) return;
  for (std::size_t i = flushed_fills_; i < fill_log_.size(); ++i) {
    rpc_.send_oneway(forward_to_, proto::kArgument, fill_log_[i]);
  }
  flushed_fills_ = fill_log_.size();
}

Bytes WorkerNode::serve_migrate(const Bytes& args) {
  Writer reply;
  auto m = proto::MigrateMsg::decode(args);
  if (!m || state_ != State::kActive) {
    // Departing/dead/stub workers refuse: the sender (origin or
    // coordinator) picks someone else.
    reply.boolean(false);
    return reply.take();
  }
  driver_.charge_recv();
  if (m->migration_id != 0 &&
      !seen_migrations_.insert(m->migration_id).second) {
    // Duplicate delivery (retransmitted handoff racing a coordinator
    // redelivery): already installed, just re-ack.
    reply.boolean(true);
    return reply.take();
  }
  for (Closure& c : m->closures) {
    if (m->redelivery) {
      core_.install_migration_redo(std::move(c));
    } else {
      core_.install_migrated(std::move(c));
    }
  }
  for (proto::MigrantLedgerEntry& e : m->ledger) {
    // Inherit the victim role: if the thief already died (we saw the
    // notice; the origin's redo never ran), redo now instead of ledgering.
    core_.adopt_migrant_ledger(e.thief, std::move(e.snapshot),
                               ever_died_.count(e.thief.value) != 0);
  }
  if (m->migration_id != 0) {
    core_.trace_instant(obs::EventType::kMigrateRereg, ClosureId{},
                        static_cast<std::uint32_t>(m->closures.size() +
                                                   m->ledger.size()));
  }
  driver_.schedule_step(0);
  reply.boolean(true);
  return reply.take();
}

void WorkerNode::finish_job() {
  if (state_ != State::kActive && state_ != State::kRegistering) return;
  end_life(State::kFinished);
  core_.clear_steal_ledger();
  send_stats_and_unregister();
  notify_terminated();
}

void WorkerNode::send_stats_and_unregister(bool unregister) {
  proto::StatsMsg stats;
  stats.who = me_;
  stats.stats = core_.stats();
  stats.start_ns = start_time_;
  stats.end_ns = end_time_;
  client_.send_oneway(proto::kStatsReport, stats.encode());
  if (!unregister) return;  // depart-with-lost-cargo: be "dead", not gone
  client_.call(proto::kRpcUnregister, {}, [](net::RpcResult) {},
               params_.rpc_policy);
}

void WorkerNode::refresh_membership() {
  if (terminated()) return;
  // Present the epoch we already hold: steady-state refreshes come back as
  // (usually empty) deltas instead of full snapshots.
  client_.call(
      proto::kRpcUpdate, proto::UpdateRequest{known_epoch_}.encode(),
      [this, inc = incarnation_,
       since = known_epoch_](net::RpcResult result) {
        if (incarnation_ != inc) return;  // callback from a past life
        if (!result.ok || terminated()) return;
        apply_membership(result.reply, since);
      },
      params_.rpc_policy);
}

std::optional<net::NodeId> WorkerNode::pick_victim() {
  if (peers_.empty()) return std::nullopt;
  switch (params_.victim_policy) {
    case VictimPolicy::kUniformRandom:
      return peers_[rng_.below(peers_.size())];
    case VictimPolicy::kRoundRobin:
      return peers_[round_robin_cursor_++ % peers_.size()];
    case VictimPolicy::kFixedFirst:
      return peers_.front();
    case VictimPolicy::kClusterLocal: {
      // Random victim within our cluster until repeated failures suggest the
      // local cluster is out of work; then random among everyone.
      if (consecutive_failed_steals_ < params_.cluster_escalate_after) {
        const int my_cluster = driver_.cluster_of(me_);
        std::vector<net::NodeId> local;
        for (net::NodeId p : peers_) {
          if (driver_.cluster_of(p) == my_cluster) local.push_back(p);
        }
        if (!local.empty()) return local[rng_.below(local.size())];
      }
      return peers_[rng_.below(peers_.size())];
    }
  }
  return peers_.front();
}

void WorkerNode::crash() {
  if (terminated()) return;
  core_.trace_instant(obs::EventType::kCrash, ClosureId{}, 0);
  end_life(State::kDead);
  driver_.cancel_step();
  driver_.isolate(true);
  notify_terminated();
}

void WorkerNode::rejoin() {
  if (state_ == State::kDeparting) {
    // The restart raced the durability handshake: finish departing (the
    // cargo's redo ownership must land somewhere) and come back after.
    pending_rejoin_ = true;
    return;
  }
  if (state_ != State::kDead && state_ != State::kDeparted) return;
  driver_.isolate(false);  // the replacement machine comes online
  ++incarnation_;
  // Survivors redo everything the dead life had stolen; the new life starts
  // empty but keeps its id allocator (late messages addressed to the old
  // incarnation must not land in new closures).  peers_ and known_epoch_
  // survive as the base the registration delta is applied against.
  // forward_to_ and the fill log survive too: the stub obligation for the
  // previous life's migrated closures outlives it (arguments addressed here
  // keep arriving, and a kReroute may still ask for a replay).  Locally
  // unknown fills forward; the ArgumentMsg ttl bounds any stub cycle.
  core_.reset_for_rejoin();
  seen_migrations_.clear();
  register_backoff_ = 0;
  steal_in_flight_ = false;
  pending_evict_.reset();
  consecutive_failed_steals_ = 0;
  depart_reason_.reset();
  state_ = State::kCreated;
  start();
}

void WorkerNode::emit_io(const std::string& text) {
  client_.send_oneway(proto::kIo, proto::IoMsg{me_, text}.encode());
}

std::string WorkerNode::describe() const {
  static constexpr const char* kStateNames[] = {
      "created", "registering", "active", "departing",
      "departed", "finished",   "dead"};
  std::ostringstream out;
  out << net::to_string(me_) << ": " << kStateNames[static_cast<int>(state_)]
      << " incarnation=" << incarnation_ << " ready=" << core_.ready_count()
      << " waiting=" << core_.waiting_count()
      << " steal_in_flight=" << (steal_in_flight_ ? 1 : 0)
      << " steal_ledger=" << core_.steal_ledger_size()
      << " peers=" << peers_.size();
  return out.str();
}

}  // namespace phish::rt
