#include "core/clearinghouse.hpp"

#include <algorithm>
#include <sstream>

#include "core/recovery.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace phish {
namespace {

/// Retransmission policies for replication deltas and for reliable control
/// notices (death notices, new-primary announcements, reroutes).
constexpr net::RetryPolicy kReplicatePolicy{};
constexpr net::RetryPolicy kControlPolicy{};
/// Cap on the io/stats tail entries shipped per delta (bounds frame size;
/// the ack watermarks carry the rest on later ticks).
constexpr std::size_t kMaxDeltaTail = 256;
/// Bounded per-epoch membership change log backing delta replies
/// (MembershipUpdate).  A worker whose known epoch fell off the log gets a
/// full snapshot instead — correctness never depends on log depth.
constexpr std::size_t kMembershipLogLimit = 256;

}  // namespace

Clearinghouse::Clearinghouse(net::RpcNode& rpc, net::TimerService& timers,
                             ClearinghouseConfig config)
    : rpc_(rpc), timers_(timers), config_(config) {}

Clearinghouse::~Clearinghouse() {
  stop();
  // Pending calls complete into this object: fail them while it is alive.
  rpc_.shutdown();
}

void Clearinghouse::install_primary_handlers() {
  rpc_.serve(proto::kRpcRegister, [this](net::NodeId src, const Bytes& args) {
    return handle_register(src, args);
  });
  rpc_.serve(proto::kRpcUnregister, [this](net::NodeId src, const Bytes& args) {
    return handle_unregister(src, args);
  });
  rpc_.serve(proto::kRpcUpdate, [this](net::NodeId, const Bytes& args) {
    return handle_update(args);
  });
  rpc_.serve(proto::kRpcResult, [this](net::NodeId src, const Bytes& args) {
    auto arg = proto::ArgumentMsg::decode(args);
    if (arg) {
      accept_result(src, std::move(arg->value));
    } else {
      PHISH_LOG(kWarn) << "clearinghouse: malformed result RPC from "
                       << net::to_string(src);
    }
    return Bytes{};
  });
  rpc_.serve(proto::kRpcMigrateLedger,
             [this](net::NodeId src, const Bytes& args) {
               return handle_migration_ledger(src, args);
             });
  rpc_.set_oneway_handler(
      [this](net::Message&& m) { handle_oneway(std::move(m)); });
}

void Clearinghouse::start() {
  install_primary_handlers();
  running_ = true;
  role_ = Role::kPrimary;
  if (config_.detect_failures) {
    failure_timer_ = timers_.schedule(config_.failure_check_period_ns,
                                      [this] { check_failures(); });
  }
  if (peer_.valid() && !replicate_timer_.valid()) {
    replicate_timer_ = timers_.schedule(config_.replicate_period_ns,
                                        [this] { replicate_tick(); });
  }
}

void Clearinghouse::start_standby(net::NodeId primary) {
  // Only the delta method is served: every other RPC (register, update,
  // result) goes unanswered, so a worker that tries the standby too early
  // times out and rotates back to the primary.
  rpc_.serve(proto::kRpcChDelta, [this](net::NodeId src, const Bytes& args) {
    return handle_delta(src, args);
  });
  rpc_.set_oneway_handler(
      [this](net::Message&& m) { handle_oneway(std::move(m)); });
  role_ = Role::kStandby;
  peer_ = primary;
  running_ = true;
  last_delta_ns_ = timers_.now_ns();  // fresh lease until the first delta
  lease_timer_ = timers_.schedule(config_.lease_check_period_ns,
                                  [this] { lease_tick(); });
}

void Clearinghouse::set_standby(net::NodeId standby) {
  peer_ = standby;
  if (running_ && role_ == Role::kPrimary && !replicate_timer_.valid()) {
    replicate_timer_ = timers_.schedule(config_.replicate_period_ns,
                                        [this] { replicate_tick(); });
  }
}

void Clearinghouse::stop() {
  running_ = false;
  for (net::TimerToken* t : {&failure_timer_, &replicate_timer_,
                             &lease_timer_}) {
    if (t->valid()) {
      timers_.cancel(*t);
      *t = net::TimerToken{};
    }
  }
}

void Clearinghouse::halt() {
  stop();
  role_ = Role::kHalted;
  rpc_.set_paused(true);
}

std::string Clearinghouse::describe() const {
  static constexpr const char* kRoleNames[] = {"primary", "standby",
                                               "demoted", "halted"};
  std::ostringstream out;
  out << "clearinghouse " << net::to_string(rpc_.id()) << ": "
      << kRoleNames[static_cast<int>(role_)] << " view=" << view_
      << " epoch=" << epoch_ << " participants=[";
  const char* sep = "";
  for (net::NodeId p : participants_) {
    out << sep << net::to_string(p);
    sep = " ";
  }
  out << "] ledger=[";
  sep = "";
  for (const auto& [mid, e] : migration_ledger_) {
    out << sep << mid << ":" << net::to_string(e.record.from) << "->"
        << net::to_string(e.record.holder);
    sep = " ";
  }
  out << "]";
  return out.str();
}

Bytes Clearinghouse::handle_register(net::NodeId src, const Bytes& args) {
  auto reg = proto::RegisterMsg::decode(args);
  const std::uint32_t inc = reg ? reg->incarnation : 1;
  const std::uint64_t known_epoch = reg ? reg->known_epoch : 0;
  const std::uint64_t now = timers_.now_ns();
  const auto known = incarnations_.find(src);
  const std::uint32_t prev = known == incarnations_.end() ? 0 : known->second;
  if (inc < prev) {
    // A previous incarnation's register arriving late: don't resurrect it.
    return membership().encode();
  }
  bool rejoined = false;
  std::optional<std::vector<net::NodeId>> death_targets;
  if (inc > prev) {
    // `inc > 1` means some earlier incarnation of this node existed, even
    // if we never saw it (incarnations start at 1 by construction).
    rejoined = prev > 0 || inc > 1;
    auto it = std::find(participants_.begin(), participants_.end(), src);
    if (it != participants_.end() && rejoined) {
      // Still listed under the older incarnation: the crash beat the
      // heartbeat timeout (or a freshly promoted primary holds a stale
      // snapshot).  That incarnation is implicitly dead — survivors must
      // redo its stolen work before the replacement is admitted.
      participants_.erase(it);
      dead_.push_back(src);
      ++epoch_;
      log_change(src, /*joined=*/false);
      death_targets = participants_;  // src is gone from the list
      drop_migrations_from(src);
    }
  }
  incarnations_[src] = inc;
  if (std::find(participants_.begin(), participants_.end(), src) ==
      participants_.end()) {
    participants_.push_back(src);
    ++epoch_;
    log_change(src, /*joined=*/true);
  }
  last_heartbeat_[src] = now;
  // A caller that presented its known epoch opted into delta replies; a
  // legacy caller (known_epoch == 0) gets the full snapshot it expects.
  Bytes reply;
  if (known_epoch > 0) {
    reply = membership_update(known_epoch).encode();
  } else {
    reply = membership().encode();
    obs::Registry::global().counter("ch.membership.full_replies").inc();
  }
  // An implicit death may have orphaned ledgered cargo (the old incarnation
  // held it), and a fresh joiner may unblock an entry that had no eligible
  // redelivery target.
  redeliver_orphans();
  if (death_targets) {
    PHISH_LOG(kInfo) << "clearinghouse: " << net::to_string(src)
                     << " re-registered as incarnation " << inc
                     << "; declaring its previous incarnation dead";
    broadcast_death(src, *death_targets);
    if (on_death_) on_death_(src);
  }
  if (rejoined && tracker_ != nullptr) {
    tracker_->note_rejoin();
    // Closes the outage window opened when the old incarnation was declared
    // dead; if the rejoin beat the death notice (implicit death above),
    // there is no window and the tracker counts the inversion instead.
    tracker_->note_up(src.value, now);
  }
  if (result_.has_value()) {
    // The job finished while this worker was joining (the shutdown broadcast
    // predates its membership): tell it directly.
    rpc_.send_oneway(src, proto::kShutdown, {});
  }
  if (on_membership_change_) on_membership_change_(participants_.size());
  return reply;
}

Bytes Clearinghouse::handle_unregister(net::NodeId src, const Bytes& args) {
  auto unreg = proto::UnregisterMsg::decode(args);
  const std::uint32_t inc = unreg ? unreg->incarnation : 1;
  const auto known = incarnations_.find(src);
  if (known != incarnations_.end() && inc < known->second) {
    // A previous incarnation's unregister arriving late (a retransmit that
    // outlived its crash and rejoin): the live incarnation stays listed, or
    // nothing would ever declare it dead.
    PHISH_LOG(kInfo) << "clearinghouse: ignoring the unregister of "
                     << net::to_string(src) << " incarnation " << inc
                     << " (incarnation " << known->second << " is live)";
    return membership().encode();
  }
  auto it = std::find(participants_.begin(), participants_.end(), src);
  if (it != participants_.end()) {
    participants_.erase(it);
    ++epoch_;
    log_change(src, /*joined=*/false);
  }
  last_heartbeat_.erase(src);
  // A graceful unregister means src finished or handed off everything it
  // held: entries naming it as holder are completed obligations.  (A
  // departing worker with cargo registers its own migration first, which
  // already retired these via the superseding-drain rule.)
  for (auto mit = migration_ledger_.begin(); mit != migration_ledger_.end();) {
    if (mit->second.record.holder == src) {
      const net::NodeId origin = mit->second.record.from;
      if (origin.valid() && origin != src) send_retirement(origin, mit->first);
      mit = migration_ledger_.erase(mit);
    } else {
      ++mit;
    }
  }
  if (on_membership_change_) on_membership_change_(participants_.size());
  return membership().encode();
}

Bytes Clearinghouse::handle_update(const Bytes& args) {
  const auto req = proto::UpdateRequest::decode(args);
  const std::uint64_t since = req ? req->since_epoch : 0;
  // since == 0 is both "legacy caller" (empty payload) and "knows nothing";
  // either way the full snapshot is the right answer.
  if (since == 0) {
    obs::Registry::global().counter("ch.membership.full_replies").inc();
    return membership().encode();
  }
  return membership_update(since).encode();
}

Bytes Clearinghouse::handle_migration_ledger(net::NodeId src,
                                             const Bytes& args) {
  (void)src;
  auto msg = proto::MigrationLedgerMsg::decode(args);
  Writer reply;
  if (!msg || msg->migration_id == 0) {
    reply.boolean(false);
    return reply.take();
  }
  auto it = migration_ledger_.find(msg->migration_id);
  if (it == migration_ledger_.end()) {
    // Registration.  The origin drained its whole core and steal ledger
    // into this record, so any entry it currently holds (cargo it adopted
    // from an earlier migration) is subsumed: retire those first, exactly
    // like a worker's superseding drain retires its inbound obligations.
    for (auto old = migration_ledger_.begin();
         old != migration_ledger_.end();) {
      if (old->second.record.holder == msg->from &&
          !old->second.redelivery_in_flight) {
        // The superseding snapshot carries every fill the old cargo ever
        // absorbed, so the old entry's origin stub no longer needs its
        // replay log for this migration.
        if (old->second.record.from.valid()) {
          send_retirement(old->second.record.from, old->first);
        }
        old = migration_ledger_.erase(old);
      } else {
        ++old;
      }
    }
    MigrationEntry e;
    e.record = std::move(*msg);
    const auto inc = incarnations_.find(e.record.holder);
    e.holder_inc = inc == incarnations_.end() ? 0 : inc->second;
    migration_ledger_.emplace(e.record.migration_id, std::move(e));
  } else {
    // Holder update (or a registration retransmit hitting the reply
    // cache miss path): re-point the entry.  The cargo snapshot stored at
    // registration stays authoritative — the update carries none.
    //
    // One exception: once the step-3 confirm moved the holder off the
    // origin, a late duplicate of the ORIGINAL registration (holder ==
    // from, reordered or retransmitted past the reply cache) must not
    // re-point the entry back.  The handshake never legitimately returns
    // a holder to its origin (successors are drawn from the origin's
    // peer list, which excludes it, and redelivery skips `from` too), and
    // accepting the stale frame would let the origin's graceful
    // unregister retire the entry — stranding the successor's inherited
    // cargo, the exact window this ledger exists to close.
    MigrationEntry& e = it->second;
    const bool stale_registration_replay =
        msg->holder == e.record.from && e.record.holder != e.record.from;
    if (!stale_registration_replay) {
      e.record.holder = msg->holder;
      const auto inc = incarnations_.find(msg->holder);
      e.holder_inc = inc == incarnations_.end() ? 0 : inc->second;
    }
  }
  // The named holder may already be dead (it crashed between accepting
  // the cargo and this update arriving): redeliver immediately rather
  // than waiting for the next failure-detector tick.
  redeliver_orphans();
  reply.boolean(true);
  return reply.take();
}

void Clearinghouse::send_retirement(net::NodeId origin, std::uint64_t mid) {
  const Bytes notice =
      proto::ControlMsg{proto::ControlMsg::kMigrationRetired, origin, mid}
          .encode();
  rpc_.call(origin, proto::kRpcControl, notice, [](net::RpcResult) {},
            kControlPolicy);
}

void Clearinghouse::drop_migrations_from(net::NodeId dead) {
  for (auto it = migration_ledger_.begin(); it != migration_ledger_.end();) {
    if (it->second.record.from == dead) {
      // The origin crashed: its victims' incarnation-blind death-redo
      // re-executes everything it ever stole, and redelivered waiting joins
      // whose argument fills route through the crashed origin's (now gone)
      // forwarding stub could never complete.  The ledger entry would only
      // duplicate work, so drop it.
      it = migration_ledger_.erase(it);
    } else {
      ++it;
    }
  }
}

void Clearinghouse::redeliver_orphans() {
  if (role_ != Role::kPrimary || !running_) return;
  const auto is_participant = [this](net::NodeId n) {
    return std::find(participants_.begin(), participants_.end(), n) !=
           participants_.end();
  };
  const auto ever_died = [this](net::NodeId n) {
    return std::find(dead_.begin(), dead_.end(), n) != dead_.end();
  };
  for (auto it = migration_ledger_.begin(); it != migration_ledger_.end();) {
    MigrationEntry& e = it->second;
    // Orphaned: the holder left the membership, or it is back in the list
    // but as a fresh incarnation (the crash that lost the cargo beat the
    // failure detector, so a pure membership check would miss it).
    bool orphaned = !is_participant(e.record.holder);
    if (!orphaned && e.holder_inc != 0) {
      const auto inc = incarnations_.find(e.record.holder);
      if (inc != incarnations_.end() && inc->second != e.holder_inc) {
        orphaned = true;
      }
    }
    if (!orphaned || e.redelivery_in_flight) {
      ++it;
      continue;
    }
    if (ever_died(e.record.from) && !is_participant(e.record.from)) {
      drop_migrations_from(e.record.from);
      it = migration_ledger_.begin();  // iterator invalidated by the drop
      continue;
    }
    // Pre-redeem steal-ledger entries whose thief is currently dead: the
    // new holder would only redo them immediately, and shipping them as
    // plain cargo spares it the thief-liveness bookkeeping.
    auto& rec = e.record;
    for (auto li = rec.ledger.begin(); li != rec.ledger.end();) {
      if (ever_died(li->thief) && !is_participant(li->thief)) {
        rec.closures.push_back(std::move(li->snapshot));
        li = rec.ledger.erase(li);
      } else {
        ++li;
      }
    }
    // Lowest-id live participant other than the origin takes the cargo
    // (deterministic, and worker 0 — fault-immune — is always eligible).
    net::NodeId target{};
    for (net::NodeId p : participants_) {
      if (p == rec.from) continue;
      if (!target.valid() || p.value < target.value) target = p;
    }
    if (!target.valid()) {
      ++it;  // nobody can take it yet; retry when membership changes
      continue;
    }
    e.redelivery_in_flight = true;
    send_redelivery(target, rec);
    ++it;
  }
}

void Clearinghouse::send_redelivery(net::NodeId target,
                                    const proto::MigrationLedgerMsg& rec) {
  const std::uint64_t mid = rec.migration_id;
  const std::size_t cargo = rec.closures.size();
  PHISH_LOG(kInfo) << "clearinghouse: re-delivering migration " << mid << " ("
                   << cargo << " closures) to " << net::to_string(target);
  proto::MigrateMsg m;
  m.from = rec.from;
  m.closures = rec.closures;
  m.migration_id = mid;
  m.redelivery = true;
  m.ledger = rec.ledger;
  rpc_.call(
      target, proto::kRpcMigrate, m.encode(),
      [this, target, mid, cargo](net::RpcResult r) {
        bool accepted = false;
        if (r.ok) {
          Reader rd(r.reply);
          accepted = rd.boolean() && rd.ok();
        }
        auto it = migration_ledger_.find(mid);
        if (it == migration_ledger_.end()) return;
        it->second.redelivery_in_flight = false;
        if (!accepted) return;  // next failure-check scan retries
        it->second.record.holder = target;
        const auto inc = incarnations_.find(target);
        it->second.holder_inc = inc == incarnations_.end() ? 0 : inc->second;
        const net::NodeId origin = it->second.record.from;
        if (tracker_ != nullptr) tracker_->note_migration_redo(cargo);
        // Re-target the departed origin's forwarding stub at the new
        // holder and have it replay the argument fills it logged since
        // the drain — without this, fills routed through the stub while
        // the old holder was dying would be lost.
        if (origin.valid() && origin != target) {
          const Bytes reroute =
              proto::ControlMsg{proto::ControlMsg::kReroute, target, mid}
                  .encode();
          rpc_.call(origin, proto::kRpcControl, reroute, [](net::RpcResult) {},
                    kControlPolicy);
        }
      },
      kControlPolicy);
}

void Clearinghouse::log_change(net::NodeId node, bool joined) {
  change_log_.push_back(EpochChange{epoch_, node, joined});
  while (change_log_.size() > kMembershipLogLimit) {
    change_log_.pop_front();
  }
}

proto::MembershipUpdate Clearinghouse::membership_update(
    std::uint64_t since_epoch) const {
  proto::MembershipUpdate u;
  u.epoch = epoch_;
  if (since_epoch >= epoch_) {
    // Caller is current (or from the future, after a failover rolled the
    // epoch back; the full set below handles that case).
    if (since_epoch == epoch_) {
      obs::Registry::global().counter("ch.membership.delta_replies").inc();
      return u;  // empty delta
    }
  }
  // The log covers (since_epoch, epoch_] iff no retained gap precedes it.
  const bool covered = since_epoch < epoch_ && !change_log_.empty() &&
                       change_log_.front().epoch <= since_epoch + 1;
  if (!covered) {
    u.full = true;
    u.participants = participants_;
    obs::Registry::global().counter("ch.membership.full_replies").inc();
    return u;
  }
  // Net delta: a later change cancels an earlier one for the same node, so
  // leave-then-rejoin within the window collapses to "no change".
  for (const EpochChange& c : change_log_) {
    if (c.epoch <= since_epoch) continue;
    if (c.joined) {
      auto it = std::find(u.left.begin(), u.left.end(), c.node);
      if (it != u.left.end()) {
        u.left.erase(it);
      } else {
        u.joined.push_back(c.node);
      }
    } else {
      auto it = std::find(u.joined.begin(), u.joined.end(), c.node);
      if (it != u.joined.end()) {
        u.joined.erase(it);
      } else {
        u.left.push_back(c.node);
      }
    }
  }
  obs::Registry::global().counter("ch.membership.delta_replies").inc();
  return u;
}

Bytes Clearinghouse::handle_delta(net::NodeId, const Bytes& args) {
  auto d = proto::ChDeltaMsg::decode(args);
  proto::ChDeltaAck ack;
  if (!d || role_ != Role::kStandby || d->view < view_) {
    // Not a standby any more (or a stale sender): fence the caller.  A
    // demoted/partitioned primary seeing promoted=true with a higher view
    // silences itself.
    ack.applied_seq = applied_seq_;
    ack.io_count = io_log_.size();
    ack.stats_count = stats_reports_.size();
    ack.view = view_;
    ack.promoted = role_ == Role::kPrimary;
    return ack.encode();
  }
  last_delta_ns_ = timers_.now_ns();
  if (d->seq > applied_seq_) {
    applied_seq_ = d->seq;
    if (d->view > view_) view_ = d->view;
    if (d->epoch > epoch_) epoch_ = d->epoch;
    participants_ = d->participants;
    dead_ = d->dead;
    if (d->result && !result_) result_ = *d->result;
    // Append exactly the unseen suffix of each replicated tail (a
    // retransmitted delta may overlap what we already hold).
    for (std::size_t i = 0; i < d->io.size(); ++i) {
      if (d->io_base + i == io_log_.size()) io_log_.push_back(d->io[i]);
    }
    for (std::size_t i = 0; i < d->stats.size(); ++i) {
      if (d->stats_base + i == stats_reports_.size()) {
        stats_reports_.push_back(d->stats[i]);
      }
    }
    incarnations_.clear();
    for (const auto& [node, inc] : d->incarnations) incarnations_[node] = inc;
    // The delta ships the whole migration ledger: rebuild rather than
    // merge.  holder_inc stays 0 (the incarnation a holder had when it took
    // the cargo is not replicated), so after a promotion only
    // membership-based orphan checks apply.
    migration_ledger_.clear();
    for (auto& mig : d->migrations) {
      MigrationEntry e;
      e.record = std::move(mig);
      const std::uint64_t mid = e.record.migration_id;
      migration_ledger_.emplace(mid, std::move(e));
    }
  }
  ack.applied_seq = applied_seq_;
  ack.io_count = io_log_.size();
  ack.stats_count = stats_reports_.size();
  ack.view = view_;
  ack.promoted = false;
  return ack.encode();
}

void Clearinghouse::handle_oneway(net::Message&& message) {
  if (message.type == proto::kHeartbeat) {
    // Both roles track liveness: workers heartbeat every replica, so a
    // promoted standby starts with a warm map instead of declaring everyone
    // dead at once.
    last_heartbeat_[message.src] = timers_.now_ns();
    return;
  }
  // A standby's only other legitimate input is the delta RPC; io or stats
  // that strayed here would corrupt the watermark-replicated logs.
  if (role_ != Role::kPrimary) return;
  switch (message.type) {
    case proto::kArgument: {
      auto arg = proto::ArgumentMsg::decode(message.payload);
      if (!arg) {
        PHISH_LOG(kWarn) << "clearinghouse: malformed argument from "
                         << net::to_string(message.src);
        return;
      }
      accept_result(message.src, std::move(arg->value));
      break;
    }
    case proto::kStatsReport: {
      auto stats = proto::StatsMsg::decode(message.payload);
      if (!stats) return;
      stats_reports_.push_back(std::move(*stats));
      break;
    }
    case proto::kIo: {
      auto io = proto::IoMsg::decode(message.payload);
      if (!io) return;
      io_log_.push_back(std::move(*io));
      break;
    }
    default:
      PHISH_LOG(kDebug) << "clearinghouse: unexpected message type "
                        << message.type;
  }
}

void Clearinghouse::accept_result(net::NodeId, Value value) {
  if (result_.has_value()) return;  // duplicate (redo or retransmit)
  result_ = value;
  // The job is done: tell every participant to shut down.
  for (net::NodeId p : participants_) {
    rpc_.send_oneway(p, proto::kShutdown, {});
  }
  if (on_result_) on_result_(value);
}

void Clearinghouse::check_failures() {
  if (!running_ || role_ != Role::kPrimary) return;
  const std::uint64_t now = timers_.now_ns();
  std::vector<net::NodeId> newly_dead;
  for (auto it = participants_.begin(); it != participants_.end();) {
    const auto hb = last_heartbeat_.find(*it);
    const std::uint64_t last = hb == last_heartbeat_.end() ? 0 : hb->second;
    if (now - last > config_.heartbeat_timeout_ns) {
      newly_dead.push_back(*it);
      dead_.push_back(*it);
      last_heartbeat_.erase(*it);
      ++epoch_;
      log_change(*it, /*joined=*/false);
      it = participants_.erase(it);
    } else {
      ++it;
    }
  }
  for (net::NodeId dead : newly_dead) drop_migrations_from(dead);
  failure_timer_ = timers_.schedule(config_.failure_check_period_ns,
                                    [this] { check_failures(); });
  for (net::NodeId dead : newly_dead) {
    PHISH_LOG(kInfo) << "clearinghouse: participant " << net::to_string(dead)
                     << " declared dead";
    if (tracker_ != nullptr) tracker_->note_down(dead.value, now);
    broadcast_death(dead, participants_);
    if (on_death_) on_death_(dead);
  }
  // Every tick doubles as the retry loop for redeliveries that were
  // rejected or lost in flight.
  redeliver_orphans();
  if (!newly_dead.empty() && on_membership_change_) {
    on_membership_change_(participants_.size());
  }
}

void Clearinghouse::broadcast_death(net::NodeId dead,
                                    const std::vector<net::NodeId>& to) {
  // Death notices drive redo; a lost one would strand stolen work forever.
  // They ride the acked RPC path (retransmitted until each peer confirms),
  // not the old best-effort kDead oneway.
  const Bytes payload =
      proto::ControlMsg{proto::ControlMsg::kDeadNotice, dead, view_}.encode();
  for (net::NodeId p : to) {
    rpc_.call(p, proto::kRpcControl, payload, [](net::RpcResult) {},
              kControlPolicy);
  }
}

void Clearinghouse::replicate_tick() {
  if (!running_ || role_ != Role::kPrimary || !peer_.valid()) return;
  replicate_timer_ = timers_.schedule(config_.replicate_period_ns,
                                      [this] { replicate_tick(); });
  if (delta_in_flight_) return;  // don't pile deltas on a slow standby
  proto::ChDeltaMsg d;
  d.seq = ++delta_seq_;
  d.view = view_;
  d.epoch = epoch_;
  d.participants = participants_;
  d.dead = dead_;
  d.result = result_;
  d.io_base = io_acked_;
  for (std::size_t i = io_acked_;
       i < io_log_.size() && d.io.size() < kMaxDeltaTail; ++i) {
    d.io.push_back(io_log_[i]);
  }
  d.stats_base = stats_acked_;
  for (std::size_t i = stats_acked_;
       i < stats_reports_.size() && d.stats.size() < kMaxDeltaTail; ++i) {
    d.stats.push_back(stats_reports_[i]);
  }
  // Full migration-ledger snapshot each delta: the ledger is small (one
  // entry per in-flight graceful departure) and a promoted standby must be
  // able to redeliver orphaned cargo on its own.
  for (const auto& [mid, entry] : migration_ledger_) {
    d.migrations.push_back(entry.record);
  }
  d.incarnations.assign(incarnations_.begin(), incarnations_.end());
  delta_in_flight_ = true;
  rpc_.call(
      peer_, proto::kRpcChDelta, d.encode(),
      [this](net::RpcResult r) {
        delta_in_flight_ = false;
        if (!r.ok) return;  // next tick retries from the same watermarks
        auto ack = proto::ChDeltaAck::decode(r.reply);
        if (!ack) return;
        if (ack->promoted && ack->view > view_) {
          // The standby promoted past us while we were cut off.  Exactly
          // one replica may act as primary: go silent.
          role_ = Role::kDemoted;
          running_ = false;
          for (net::TimerToken* t : {&failure_timer_, &replicate_timer_}) {
            if (t->valid()) {
              timers_.cancel(*t);
              *t = net::TimerToken{};
            }
          }
          PHISH_LOG(kInfo) << "clearinghouse " << net::to_string(rpc_.id())
                           << ": superseded by promoted standby; demoting";
          rpc_.set_paused(true);
        } else {
          io_acked_ =
              std::max(io_acked_, static_cast<std::size_t>(ack->io_count));
          stats_acked_ = std::max(stats_acked_,
                                  static_cast<std::size_t>(ack->stats_count));
        }
      },
      kReplicatePolicy);
}

void Clearinghouse::lease_tick() {
  if (!running_ || role_ != Role::kStandby) return;
  const std::uint64_t now = timers_.now_ns();
  if (now - last_delta_ns_ <= config_.lease_timeout_ns) {
    lease_timer_ = timers_.schedule(config_.lease_check_period_ns,
                                    [this] { lease_tick(); });
    return;
  }
  lease_timer_ = net::TimerToken{};
  PHISH_LOG(kInfo) << "clearinghouse " << net::to_string(rpc_.id())
                   << ": primary missed its lease; promoting";
  if (tracker_ != nullptr) tracker_->note_detect(now);
  promote();
}

void Clearinghouse::promote() {
  if (role_ != Role::kStandby) return;
  role_ = Role::kPrimary;
  ++view_;  // strictly above every view the old primary served
  const std::uint64_t now = timers_.now_ns();
  if (lease_timer_.valid()) {
    timers_.cancel(lease_timer_);
    lease_timer_ = net::TimerToken{};
  }
  // Full heartbeat grace: measure deaths from the promotion instant, not
  // from heartbeats the dying primary never shared with us.
  for (net::NodeId p : participants_) last_heartbeat_[p] = now;
  // Replicated ledger entries whose origin is already among the dead
  // follow the same drop rule the old primary would have applied.  (An
  // origin that crashed, rejoined, and departed again between two deltas
  // can slip past this — the documented loss window; its victims' redo
  // still covers the stolen portion.)
  for (net::NodeId d : dead_) {
    if (std::find(participants_.begin(), participants_.end(), d) ==
        participants_.end()) {
      drop_migrations_from(d);
    }
  }
  if (config_.detect_failures) {
    failure_timer_ = timers_.schedule(config_.failure_check_period_ns,
                                      [this] { check_failures(); });
  }
  install_primary_handlers();
  PHISH_LOG(kInfo) << "clearinghouse " << net::to_string(rpc_.id())
                   << ": promoted to primary (view " << view_ << ", "
                   << participants_.size() << " participants)";
  const Bytes announce =
      proto::ControlMsg{proto::ControlMsg::kNewPrimary, rpc_.id(), view_}
          .encode();
  for (net::NodeId p : participants_) {
    rpc_.call(p, proto::kRpcControl, announce, [](net::RpcResult) {},
              kControlPolicy);
  }
  redeliver_orphans();
  if (tracker_ != nullptr) tracker_->note_promote(now);
  if (result_) {
    // The job had already finished: the old primary died mid-shutdown, so
    // finish the broadcast it started.
    for (net::NodeId p : participants_) {
      rpc_.send_oneway(p, proto::kShutdown, {});
    }
  }
}

}  // namespace phish
