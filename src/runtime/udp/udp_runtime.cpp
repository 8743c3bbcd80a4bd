#include "runtime/udp/udp_runtime.hpp"

#include <algorithm>
#include <chrono>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace phish::rt {
namespace {

const obs::SteadyClock& steady_clock() {
  static const obs::SteadyClock clock;
  return clock;
}

}  // namespace

UdpWorker::UdpWorker(net::UdpNetwork& network, net::TimerService& timers,
                     const TaskRegistry& registry, net::NodeId me,
                     std::vector<net::NodeId> clearinghouse,
                     const UdpJobConfig& config, std::uint64_t seed)
    : network_(network),
      timers_(timers),
      registry_(registry),
      me_(me),
      clearinghouse_(clearinghouse.front()),
      config_(config),
      channel_(network.channel(me)),
      faulty_(config.fault_plan ? std::make_unique<net::FaultyChannel>(
                                      channel_, *config.fault_plan)
                                : nullptr),
      rpc_(faulty_ ? static_cast<net::Channel&>(*faulty_)
                   : static_cast<net::Channel&>(channel_),
           timers),
      client_(rpc_, std::move(clearinghouse)),
      core_(me, registry,
            [this] {
              WorkerCore::Hooks hooks;
              hooks.send_remote = [this](const ContRef& cont, Value value) {
                const Bytes payload =
                    proto::ArgumentMsg{cont, std::move(value)}.encode();
                if (client_.is_replica(cont.home)) {
                  // The job result must survive loss and coordinator
                  // failover: RPC through the replica ring.
                  client_.call(proto::kRpcResult, payload,
                               [](net::RpcResult) {}, config_.rpc_policy);
                } else {
                  rpc_.send_oneway(cont.home, proto::kArgument, payload);
                }
              };
              hooks.emit_io = [this](const std::string& text) {
                client_.send_oneway(proto::kIo,
                                    proto::IoMsg{me_, text}.encode());
              };
              hooks.forward_local_miss = [this](const ContRef& cont,
                                                Value&& value) {
                // Called from core_, so mutex_ is already held.  A locally
                // homed fill whose target left with a previous life's cargo
                // (or with the in-flight departure drain) must follow the
                // forwarding stub, not the dead-letter counter.
                if (!departing_.load(std::memory_order_acquire) &&
                    !forward_to_.valid()) {
                  return false;
                }
                log_and_forward_fill_locked(
                    proto::ArgumentMsg{cont, std::move(value)});
                return true;
              };
              return hooks;
            }(),
            config.exec_order, config.steal_order),
      rng_(mix64(seed ^ me.value)) {
  rpc_.set_jitter_seed(mix64(seed ^ 0x6a77'7e12'0badULL ^ me.value));
  if (config.tracer != nullptr) {
    obs::TraceShard* shard =
        config.tracer->shard(static_cast<std::uint16_t>(me.value));
    core_.set_trace(shard, &steady_clock());
    rpc_.set_trace(shard, &steady_clock());
  }
  rpc_.set_oneway_handler(
      [this](net::Message&& m) { handle_message(std::move(m)); });
  rpc_.serve(proto::kRpcSteal, [this](net::NodeId, const Bytes& args) {
    auto request = proto::StealRequest::decode(args);
    proto::StealReply reply;
    // A departing worker refuses thieves: every closure it still holds is
    // about to be drained into the migration cargo, and a steal racing the
    // drain would fork ownership.
    if (request && !stop_.load(std::memory_order_acquire) &&
        !departing_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mutex_);
      reply.tasks = core_.try_steal_batch(request->thief, request->max_tasks);
    }
    return reply.encode();
  });
  rpc_.serve(proto::kRpcControl, [this](net::NodeId, const Bytes& args) {
    return handle_control(args);
  });
  rpc_.serve(proto::kRpcMigrate, [this](net::NodeId, const Bytes& args) {
    return serve_migrate(args);
  });
}

UdpWorker::~UdpWorker() {
  request_stop();
  join();
  // Calls can still be pending (membership refreshes, the unregister).  Fail
  // them now: their completions use client_ and this worker's fields, and
  // ~RpcNode would run them only after those are destroyed.
  rpc_.shutdown();
}

void UdpWorker::set_root(TaskId task, std::vector<Value> args) {
  root_ = std::make_pair(task, std::move(args));
}

void UdpWorker::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void UdpWorker::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
}

void UdpWorker::kill() {
  killed_.store(true, std::memory_order_release);
  // A killed machine neither sends nor hears anything; in-flight RPCs die
  // by retry exhaustion, which is what unblocks the worker loop.
  rpc_.set_paused(true);
  request_stop();
}

void UdpWorker::evict() {
  evict_requested_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
}

void UdpWorker::rejoin() {
  join();  // wait out the dead life's last (failing) in-flight RPCs
  const bool was_killed = killed_.load(std::memory_order_acquire);
  const bool was_departed = departed_.load(std::memory_order_acquire);
  if (!was_killed && !was_departed) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++incarnation_;
    // Survivors redo everything the dead life had stolen; the new life
    // starts empty but in a fresh ClosureId band, so late datagrams
    // addressed to the old incarnation cannot land in new closures.
    core_.reset_for_rejoin();
    core_.set_seq_base(static_cast<std::uint64_t>(incarnation_) << 32);
    // The dedupe set described installs into the dead life's core, which is
    // now empty: a Clearinghouse redelivery of the same migration_id must
    // land again (a stale hit would ack without installing and the ledger
    // would record this incarnation as holder — silent permanent loss).
    // Duplicate installs in the new life are merely idempotent re-execution.
    seen_migrations_.clear();
    // peers_ and known_epoch_ survive: they are the base the registration
    // delta is applied against (the Clearinghouse replies with changes since
    // known_epoch_, including our own death and any peers lost meanwhile).
    if (!was_departed) {
      // A crashed life had no stub; a gracefully departed one did, and its
      // obligation (forward_to_ + fill_log_ + outstanding migration ids)
      // outlives the incarnation — fills addressed to the migrated cargo
      // keep arriving here.
      forward_to_ = net::NodeId{};
      fill_log_.clear();
      flushed_fills_ = 0;
      outstanding_migrations_.clear();
    }
  }
  departed_for_shrink_.store(false, std::memory_order_release);
  departed_.store(false, std::memory_order_release);
  departing_.store(false, std::memory_order_release);
  evict_requested_.store(false, std::memory_order_release);
  suppress_unregister_.store(false, std::memory_order_release);
  killed_.store(false, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  rpc_.set_paused(false);
  start();
}

void UdpWorker::join() {
  if (thread_.joinable()) thread_.join();
}

WorkerStats UdpWorker::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.stats();
}

void UdpWorker::thread_main() {
  if (!do_register()) {
    PHISH_LOG(kWarn) << net::to_string(me_) << ": registration failed; worker "
                     << "exiting without joining the job";
    return;
  }
  client_.send_oneway_all(proto::kHeartbeat, {});
  if (root_) {
    std::lock_guard<std::mutex> lock(mutex_);
    core_.spawn(root_->first, std::move(root_->second),
                clearinghouse_continuation(clearinghouse_), 0);
    root_.reset();
  }
  run_loop();
  // A killed worker vanishes silently; the Clearinghouse must detect it via
  // missed heartbeats (that is the failure mode under test).
  if (!killed_.load(std::memory_order_acquire)) send_stats_and_unregister();
}

bool UdpWorker::do_register() {
  // Registration is synchronous from the worker's point of view: nothing to
  // do until the Clearinghouse knows us.  Bounded retries with exponential
  // backoff (plus seeded jitter) keep a mass rejoin — e.g. a rack coming
  // back after a correlated loss — from storming the coordinator in
  // lockstep.
  const int max_attempts = std::max(config_.register_attempts, 1);
  std::uint64_t backoff_ns = config_.register_backoff_ns;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (stop_.load(std::memory_order_acquire)) return false;
    std::uint64_t since;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      since = known_epoch_;
    }
    std::mutex m;
    std::condition_variable cv;
    bool done = false, ok = false;
    client_.call(
        proto::kRpcRegister,
        proto::RegisterMsg{incarnation_, since}.encode(),
        [&](net::RpcResult result) {
          std::lock_guard<std::mutex> lock(m);
          done = true;
          if (result.ok) {
            if (since > 0) {
              // Rejoin with a prior view: the reply is a delta against it.
              auto update = proto::MembershipUpdate::decode(result.reply);
              if (update) {
                std::lock_guard<std::mutex> self_lock(mutex_);
                apply_membership_update_locked(*update);
                ok = true;
              }
            } else {
              auto membership = proto::Membership::decode(result.reply);
              if (membership) {
                std::lock_guard<std::mutex> self_lock(mutex_);
                known_epoch_ = membership->epoch;
                peers_.clear();
                for (net::NodeId p : membership->participants) {
                  if (p != me_) peers_.push_back(p);
                }
                ok = true;
              }
            }
          }
          cv.notify_all();
        },
        config_.rpc_policy);
    // RpcNode guarantees the completion fires exactly once (reply, retry
    // exhaustion, or destruction), so waiting without a timeout is safe — and
    // necessary: the callback captures these stack variables by reference.
    {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done; });
    }
    if (ok) return true;
    if (attempt + 1 >= max_attempts) break;
    std::uint64_t jitter;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jitter = rng_.below(backoff_ns / 2 + 1);
    }
    PHISH_LOG(kWarn) << net::to_string(me_) << ": register attempt "
                     << (attempt + 1) << " failed; retrying in "
                     << (backoff_ns + jitter) / 1'000'000 << " ms";
    std::unique_lock<std::mutex> lock(mutex_);
    wake_cv_.wait_for(lock, std::chrono::nanoseconds(backoff_ns + jitter),
                      [this] {
                        return stop_.load(std::memory_order_acquire);
                      });
    backoff_ns = std::min(backoff_ns * 2, config_.register_backoff_max_ns);
  }
  return false;
}

void UdpWorker::apply_membership_update_locked(
    const proto::MembershipUpdate& update) {
  known_epoch_ = update.epoch;
  if (update.full) {
    peers_.clear();
    for (net::NodeId p : update.participants) {
      if (p != me_) peers_.push_back(p);
    }
    return;
  }
  for (net::NodeId p : update.left) {
    peers_.erase(std::remove(peers_.begin(), peers_.end(), p), peers_.end());
  }
  for (net::NodeId p : update.joined) {
    if (p == me_) continue;
    if (std::find(peers_.begin(), peers_.end(), p) == peers_.end()) {
      peers_.push_back(p);
    }
  }
}

void UdpWorker::run_loop() {
  int consecutive_failed_steals = 0;
  std::uint64_t last_heartbeat = timers_.now_ns();
  while (!stop_.load(std::memory_order_acquire)) {
    if (evict_requested_.exchange(false, std::memory_order_acq_rel)) {
      // Owner reclaim: drain through the acked migration handshake.  On
      // abandonment (coordinator unreachable / nobody took the cargo) the
      // closures are reinstalled and we keep working — strictly better than
      // stranding them in a stopped worker.
      if (perform_evict()) return;
      consecutive_failed_steals = 0;
      continue;
    }
    // Heartbeats are sent from the worker's own loop (not a timer thread):
    // both busy and idle iterations come around far more often than the
    // period, and there is no callback lifetime to manage.
    const std::uint64_t now = timers_.now_ns();
    if (now - last_heartbeat >= config_.heartbeat_period_ns) {
      // Every replica hears heartbeats, so a promoted standby starts with a
      // warm liveness map.
      client_.send_oneway_all(proto::kHeartbeat, {});
      last_heartbeat = now;
    }
    bool did_work = false;
    {
      // Bounded batch per lock hold, as in the threads runtime, so the
      // receiver thread can serve steals and deliver arguments in between.
      constexpr int kBatch = 8;
      std::lock_guard<std::mutex> lock(mutex_);
      for (int i = 0; i < kBatch; ++i) {
        auto task = core_.pop_for_execution();
        if (!task) break;
        core_.execute(*task);
        did_work = true;
        if (stop_.load(std::memory_order_acquire)) return;
      }
    }
    if (did_work) {
      consecutive_failed_steals = 0;
      continue;
    }
    if (attempt_steal()) {
      consecutive_failed_steals = 0;
      continue;
    }
    // Periodically refresh the membership view while failing, so a
    // participant that joined after our registration becomes visible.
    if (consecutive_failed_steals > 0 && consecutive_failed_steals % 8 == 0) {
      refresh_membership();
    }
    if (++consecutive_failed_steals >= config_.max_failed_steals) {
      // Parallelism has shrunk: migrate leftovers through the same acked
      // handshake an owner reclaim uses and exit (the macro scheduler would
      // reassign this machine).  The old fire-and-forget kMigrate here was
      // the unsurvivable window the durability ledger closes.
      if (perform_evict()) {
        departed_for_shrink_.store(true, std::memory_order_release);
        return;
      }
      consecutive_failed_steals = 0;  // cargo reinstalled: keep trying
      continue;
    }
    // Nothing local, nothing stolen: nap until a message or retry time.
    std::unique_lock<std::mutex> lock(mutex_);
    wake_cv_.wait_for(lock, std::chrono::nanoseconds(config_.steal_retry_ns));
  }
}

bool UdpWorker::attempt_steal() {
  std::optional<net::NodeId> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    core_.note_steal_request_sent();
    victim = pick_peer();
  }
  if (!victim) {
    // Nobody to steal from in our (possibly stale) view: refresh it.
    refresh_membership();
    std::lock_guard<std::mutex> lock(mutex_);
    core_.note_steal_failed();
    return false;
  }
  const std::uint64_t steal_sent_at = monotonic_ns();
  // Split-phase in spirit, but a thief has nothing else to do, so wait for
  // the reply (bounded by the RPC retry budget).
  std::mutex m;
  std::condition_variable cv;
  bool done = false, got = false;
  const std::uint16_t max_tasks = static_cast<std::uint16_t>(
      config_.steal_batch < 1 ? 1 : config_.steal_batch);
  rpc_.call(
      *victim, proto::kRpcSteal, proto::StealRequest{me_, max_tasks}.encode(),
      [&](net::RpcResult result) {
        if (result.ok) {
          auto reply = proto::StealReply::decode(result.reply);
          if (reply && !reply->tasks.empty()) {
            std::lock_guard<std::mutex> self_lock(mutex_);
            for (Closure& c : reply->tasks) {
              core_.install_stolen(std::move(c));
            }
            got = true;
          }
        }
        std::lock_guard<std::mutex> lock(m);
        done = true;
        cv.notify_all();
      },
      config_.rpc_policy);
  // See do_register: the completion is guaranteed, and it captures locals.
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
  if (!got) {
    std::lock_guard<std::mutex> self_lock(mutex_);
    core_.note_steal_failed();
  } else {
    steal_latency_.observe(monotonic_ns() - steal_sent_at);
    if (tracker_ != nullptr) tracker_->note_steal(timers_.now_ns());
  }
  return got;
}

void UdpWorker::handle_message(net::Message&& message) {
  switch (message.type) {
    case proto::kArgument: {
      auto arg = proto::ArgumentMsg::decode(message.payload);
      if (!arg) return;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (departed_.load(std::memory_order_acquire)) {
          // Pure stub (the thread exited after a graceful departure): every
          // fill follows the cargo.  Logged so a kReroute can replay it at
          // a re-delivered holder.
          log_and_forward_fill_locked(std::move(*arg));
          return;
        }
        // A departing worker or a rejoined life with a residual stub may
        // need the value again (to forward); everyone else moves it
        // straight into the closure.
        const bool may_forward =
            departing_.load(std::memory_order_acquire) || forward_to_.valid();
        const auto outcome = may_forward
                                 ? core_.deliver_remote(arg->cont.target,
                                                        arg->cont.slot,
                                                        arg->value)
                                 : core_.deliver_remote(arg->cont.target,
                                                        arg->cont.slot,
                                                        std::move(arg->value));
        if (outcome == WorkerCore::Deliver::kUnknown && may_forward) {
          // Post-drain fill (target left with the cargo) or residual-stub
          // fill (target left with a previous life's cargo): buffer and
          // forward once/because a successor is known.
          log_and_forward_fill_locked(std::move(*arg));
        }
      }
      wake_cv_.notify_all();
      break;
    }
    case proto::kShutdown:
      request_stop();
      break;
    case proto::kMigrate: {
      auto migrate = proto::MigrateMsg::decode(message.payload);
      if (!migrate) return;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (forward_to_.valid()) {
          rpc_.send_oneway(forward_to_, proto::kMigrate, message.payload);
          return;
        }
        for (Closure& c : migrate->closures) {
          core_.install_migrated(std::move(c));
        }
      }
      wake_cv_.notify_all();
      break;
    }
    default:
      PHISH_LOG(kDebug) << net::to_string(me_)
                        << ": unexpected message type " << message.type;
  }
}

Bytes UdpWorker::handle_control(const Bytes& args) {
  // Acked control plane (death notices, new-primary announcements).  The
  // RPC reply is the ack; an empty body is all the caller needs.
  auto msg = proto::ControlMsg::decode(args);
  if (!msg) return {};
  switch (msg->kind) {
    case proto::ControlMsg::kDeadNotice: {
      if (msg->who == me_) break;  // our own previous incarnation
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ever_died_.insert(msg->who.value);
        peers_.erase(std::remove(peers_.begin(), peers_.end(), msg->who),
                     peers_.end());
        // A departed stub's core is empty (its final drain was) and its
        // steal ledger lives at the successor, which inherited the victim
        // role: re-enqueueing redo snapshots here would strand them in a
        // worker whose loop has exited.  perform_evict flips departed_
        // inside this same mutex, so the check is race-free.
        if (!departed_.load(std::memory_order_acquire)) {
          core_.handle_participant_death(msg->who);
        }
      }
      wake_cv_.notify_all();
      break;
    }
    case proto::ControlMsg::kNewPrimary:
      client_.adopt(msg->who, msg->view);
      break;
    case proto::ControlMsg::kReroute: {
      // Our migrated cargo was re-delivered to msg->who after the previous
      // holder died: re-target the forwarding stub and replay every fill
      // logged since the drain — the old holder took the already-forwarded
      // ones to its grave.
      std::lock_guard<std::mutex> lock(mutex_);
      forward_to_ = msg->who;
      flushed_fills_ = 0;
      flush_fill_log_locked();
      break;
    }
    case proto::ControlMsg::kMigrationRetired: {
      // The coordinator retired ledger entry msg->view (its holder finished
      // the cargo or re-snapshotted it with all fills applied).  Once no
      // migration of ours remains outstanding, no kReroute can ever replay
      // the fill log: release it instead of retaining it forever.
      std::lock_guard<std::mutex> lock(mutex_);
      outstanding_migrations_.erase(msg->view);
      if (outstanding_migrations_.empty()) {
        fill_log_.clear();
        flushed_fills_ = 0;
      }
      break;
    }
    default:
      break;
  }
  return {};
}

Bytes UdpWorker::serve_migrate(const Bytes& args) {
  Writer reply;
  auto m = proto::MigrateMsg::decode(args);
  if (!m || stop_.load(std::memory_order_acquire) ||
      departing_.load(std::memory_order_acquire) ||
      departed_.load(std::memory_order_acquire)) {
    // Departing/stopped/stub workers refuse: the sender (origin or
    // coordinator) picks someone else.
    reply.boolean(false);
    return reply.take();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
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
      // notice; the origin's redo never ran), redo now instead of
      // ledgering.
      core_.adopt_migrant_ledger(e.thief, std::move(e.snapshot),
                                 ever_died_.count(e.thief.value) != 0);
    }
    if (m->migration_id != 0) {
      core_.trace_instant(obs::EventType::kMigrateRereg, ClosureId{},
                          static_cast<std::uint32_t>(m->closures.size() +
                                                     m->ledger.size()));
    }
  }
  wake_cv_.notify_all();
  reply.boolean(true);
  return reply.take();
}

bool UdpWorker::call_ledger_blocking(const proto::MigrationLedgerMsg& msg) {
  std::mutex m;
  std::condition_variable cv;
  bool done = false, ok = false;
  client_.call(
      proto::kRpcMigrateLedger, msg.encode(),
      [&](net::RpcResult result) {
        if (result.ok) {
          Reader r(result.reply);
          ok = r.boolean() && r.ok();
        }
        std::lock_guard<std::mutex> lock(m);
        done = true;
        cv.notify_all();
      },
      config_.rpc_policy);
  // See do_register: the completion is guaranteed, and it captures locals.
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
  return ok;
}

bool UdpWorker::perform_evict() {
  departing_.store(true, std::memory_order_release);
  // Loop until a drain comes up empty: fills arriving mid-handshake are
  // buffered in the fill log (see handle_message), not the core, and steals
  // and inbound migrations are refused while departing_ — the only refill
  // source is a kDeadNotice re-enqueueing redo snapshots, so rounds are
  // bounded by peer deaths during the handshake.  The cap below is a
  // churn-storm backstop, not the expected exit.
  constexpr int kMaxRounds = 8;
  for (int round = 0;; ++round) {
    std::vector<Closure> cargo;
    std::vector<proto::MigrantLedgerEntry> ledger;
    std::uint64_t mid = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Drain everything a crash of this worker (or of the successor)
      // would lose: remaining closures AND the steal ledger — the
      // successor inherits the victim role for our thieves' work.
      cargo = core_.drain_for_migration();
      ledger = core_.export_steal_ledger();
      if (cargo.empty() && ledger.empty()) {
        // The empty-drain check and the departed_ flip are one critical
        // section: a kDeadNotice (handle_control also holds mutex_) lands
        // either before this drain — and is caught by it — or after
        // departed_ is set, where its core redo is skipped because the
        // migrant ledger exported to the successor owns those redos now.
        // Flipping departed_ outside the mutex would let a notice slip in
        // between and strand redo snapshots in a stopped worker.
        departed_.store(true, std::memory_order_release);
        return true;
      }
      if (round >= kMaxRounds) {
        // The drain keeps refilling (a death-notice storm mid-handshake).
        // Give up on a graceful exit: depart as if crashed — reinstall so
        // nothing is half-drained, skip the unregister so the failure
        // detector fires, and let the ledgered cargo plus our victims'
        // steal ledgers drive the standard redo path.
        for (Closure& c : cargo) core_.install_migrated(std::move(c));
        for (proto::MigrantLedgerEntry& e : ledger) {
          core_.adopt_migrant_ledger(e.thief, std::move(e.snapshot),
                                     ever_died_.count(e.thief.value) != 0);
        }
        PHISH_LOG(kWarn) << net::to_string(me_)
                         << ": migration drain refilled " << round
                         << " times; departing noisily";
        suppress_unregister_.store(true, std::memory_order_release);
        departed_.store(true, std::memory_order_release);
        return true;
      }
      mid = (static_cast<std::uint64_t>(me_.value) << 32) | next_mig_seq_++;
    }
    // Step 1: register the cargo snapshot with the Clearinghouse BEFORE any
    // handoff.  From here on, a crash of ours or the successor's is
    // recoverable: the coordinator redelivers from the ledger.
    proto::MigrationLedgerMsg reg;
    reg.migration_id = mid;
    reg.from = me_;
    reg.holder = me_;
    reg.closures = cargo;
    reg.ledger = ledger;
    if (!call_ledger_blocking(reg)) {
      // Without a ledger entry a handoff would reopen the unsurvivable
      // window: reinstall and keep working instead.
      PHISH_LOG(kWarn) << net::to_string(me_)
                       << ": migration ledger unreachable; abandoning depart";
      std::lock_guard<std::mutex> lock(mutex_);
      for (Closure& c : cargo) core_.install_migrated(std::move(c));
      for (proto::MigrantLedgerEntry& e : ledger) {
        core_.adopt_migrant_ledger(e.thief, std::move(e.snapshot),
                                   ever_died_.count(e.thief.value) != 0);
      }
      departing_.store(false, std::memory_order_release);
      return false;
    }
    // Step 2: acked handoff.  The cargo is only considered placed once a
    // successor's reply says it installed it; refusals and RPC failures
    // rotate to the next candidate.
    std::vector<net::NodeId> candidates;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // The ledger entry exists from here until the coordinator retires it
      // (even if this depart is abandoned below): retain the fill log for a
      // possible kReroute replay until the retirement notice arrives.
      outstanding_migrations_.insert(mid);
      candidates = peers_;
      for (std::size_t i = candidates.size(); i > 1; --i) {
        std::swap(candidates[i - 1], candidates[rng_.below(i)]);
      }
    }
    proto::MigrateMsg msg;
    msg.from = me_;
    msg.closures = cargo;
    msg.migration_id = mid;
    msg.redelivery = false;
    msg.ledger = ledger;
    const Bytes payload = msg.encode();
    net::NodeId successor{};
    for (net::NodeId cand : candidates) {
      std::mutex m;
      std::condition_variable cv;
      bool done = false, accepted = false;
      rpc_.call(
          cand, proto::kRpcMigrate, payload,
          [&](net::RpcResult result) {
            if (result.ok) {
              Reader r(result.reply);
              accepted = r.boolean() && r.ok();
            }
            std::lock_guard<std::mutex> lock(m);
            done = true;
            cv.notify_all();
          },
          config_.rpc_policy);
      {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return done; });
      }
      if (accepted) {
        successor = cand;
        break;
      }
    }
    if (!successor.valid()) {
      // Nobody can take the cargo right now.  Abandon: reinstall and keep
      // working; the registered entry (holder still us) is superseded by
      // the next departure's drain or retired by a graceful unregister —
      // and if we crash first, the coordinator redelivers it.
      PHISH_LOG(kWarn) << net::to_string(me_)
                       << ": no successor accepted the cargo; abandoning "
                       << "depart";
      std::lock_guard<std::mutex> lock(mutex_);
      for (Closure& c : cargo) core_.install_migrated(std::move(c));
      for (proto::MigrantLedgerEntry& e : ledger) {
        core_.adopt_migrant_ledger(e.thief, std::move(e.snapshot),
                                   ever_died_.count(e.thief.value) != 0);
      }
      departing_.store(false, std::memory_order_release);
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      forward_to_ = successor;
      flush_fill_log_locked();  // post-drain fills follow the cargo
    }
    // Step 3: atomically transfer redo ownership — after this ack the
    // coordinator watches the successor, not us, for this cargo.
    proto::MigrationLedgerMsg upd;
    upd.migration_id = mid;
    upd.from = me_;
    upd.holder = successor;
    if (!call_ledger_blocking(upd)) {
      // The successor holds the cargo but the coordinator still lists us as
      // holder: depart WITHOUT unregistering (a graceful unregister would
      // retire the entry) so the failure detector redelivers; duplicate
      // execution is idempotent.
      PHISH_LOG(kWarn) << net::to_string(me_)
                       << ": holder confirm failed; departing noisily";
      suppress_unregister_.store(true, std::memory_order_release);
      departed_.store(true, std::memory_order_release);
      return true;
    }
  }
}

void UdpWorker::log_and_forward_fill_locked(proto::ArgumentMsg arg) {
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
  flush_fill_log_locked();
}

void UdpWorker::flush_fill_log_locked() {
  if (!forward_to_.valid()) return;
  for (std::size_t i = flushed_fills_; i < fill_log_.size(); ++i) {
    rpc_.send_oneway(forward_to_, proto::kArgument, fill_log_[i]);
  }
  flushed_fills_ = fill_log_.size();
}

void UdpWorker::send_stats_and_unregister() {
  proto::StatsMsg stats;
  stats.who = me_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.stats = core_.stats();
  }
  stats.end_ns = timers_.now_ns();
  client_.send_oneway(proto::kStatsReport, stats.encode());
  if (suppress_unregister_.load(std::memory_order_acquire)) return;
  client_.call(proto::kRpcUnregister, {}, [](net::RpcResult) {},
               config_.rpc_policy);
}

void UdpWorker::refresh_membership() {
  // Fire-and-forget update; the completion runs on a transport thread and
  // must not capture stack locals.  Presenting known_epoch_ gets a delta
  // instead of a full snapshot once we have any view at all.
  std::uint64_t since;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    since = known_epoch_;
  }
  client_.call(
      proto::kRpcUpdate, proto::UpdateRequest{since}.encode(),
      [this, since](net::RpcResult result) {
        if (!result.ok || stop_.load(std::memory_order_acquire)) return;
        if (since > 0) {
          auto update = proto::MembershipUpdate::decode(result.reply);
          if (!update) return;
          std::lock_guard<std::mutex> lock(mutex_);
          apply_membership_update_locked(*update);
          return;
        }
        auto membership = proto::Membership::decode(result.reply);
        if (!membership) return;
        std::lock_guard<std::mutex> lock(mutex_);
        known_epoch_ = membership->epoch;
        peers_.clear();
        for (net::NodeId p : membership->participants) {
          if (p != me_) peers_.push_back(p);
        }
      },
      config_.rpc_policy);
}

std::optional<net::NodeId> UdpWorker::pick_peer() {
  if (peers_.empty()) return std::nullopt;
  return peers_[rng_.below(peers_.size())];
}

// ---- UdpJob. ----

UdpJob::UdpJob(const TaskRegistry& registry, UdpJobConfig config)
    : registry_(registry), config_(config) {
  if (config_.workers < 1) {
    throw std::invalid_argument("udp runtime: need at least one worker");
  }
}

UdpJobResult UdpJob::run(TaskId root, std::vector<Value> args) {
  net::UdpNetwork network(config_.net);
  net::ThreadTimerService timers;

  const net::NodeId ch_node{0};
  net::RpcNode ch_rpc(network.channel(ch_node), timers);
  ch_rpc.set_jitter_seed(mix64(config_.seed ^ 0xc0de'0000ULL));
  if (config_.tracer != nullptr) {
    ch_rpc.set_trace(
        config_.tracer->shard(static_cast<std::uint16_t>(ch_node.value)),
        &steady_clock());
  }
  Clearinghouse clearinghouse(ch_rpc, timers, config_.clearinghouse);
  RecoveryTracker recovery;
  clearinghouse.set_recovery_tracker(&recovery);

  // The replica ring every worker fails over across: primary first.
  std::vector<net::NodeId> replicas{ch_node};
  std::unique_ptr<net::RpcNode> backup_rpc;
  std::unique_ptr<Clearinghouse> backup;
  if (config_.enable_backup) {
    const net::NodeId backup_node{
        static_cast<std::uint32_t>(config_.workers + 1)};
    replicas.push_back(backup_node);
    backup_rpc =
        std::make_unique<net::RpcNode>(network.channel(backup_node), timers);
    backup_rpc->set_jitter_seed(mix64(config_.seed ^ 0xc0de'0001ULL));
    backup = std::make_unique<Clearinghouse>(*backup_rpc, timers,
                                             config_.clearinghouse);
    backup->set_recovery_tracker(&recovery);
  }

  std::mutex result_mutex;
  std::condition_variable result_cv;
  std::optional<Value> result_value;
  const auto record_result = [&](const Value& v) {
    std::lock_guard<std::mutex> lock(result_mutex);
    if (!result_value) result_value = v;
    result_cv.notify_all();
  };
  clearinghouse.set_on_result(record_result);
  clearinghouse.start();
  if (backup != nullptr) {
    backup->set_on_result(record_result);
    backup->start_standby(ch_node);
    clearinghouse.set_standby(backup_rpc->id());
  }

  std::vector<std::unique_ptr<UdpWorker>> workers;
  Xoshiro256 seeder(config_.seed);
  for (int i = 0; i < config_.workers; ++i) {
    workers.push_back(std::make_unique<UdpWorker>(
        network, timers, registry_,
        net::NodeId{static_cast<std::uint32_t>(i + 1)}, replicas, config_,
        seeder.next()));
    workers.back()->set_recovery_tracker(&recovery);
  }
  workers[0]->set_root(root, std::move(args));

  Stopwatch watch;
  for (auto& w : workers) w->start();

  // Scripted control-plane chaos: coarse wall-clock kills, driven from a
  // dedicated thread so the main thread stays parked on the result.  The
  // legacy kill_* knobs and the general node_events schedule (e.g. a
  // ChurnPlan's output) are merged into one sorted timeline.
  std::thread chaos;
  if (config_.kill_primary_after_ns > 0 || config_.kill_worker_after_ns > 0 ||
      !config_.node_events.empty()) {
    chaos = std::thread([&] {
      struct Event {
        std::uint64_t at_ns;
        std::function<void()> fire;
      };
      std::vector<Event> events;
      if (config_.kill_primary_after_ns > 0) {
        events.push_back({config_.kill_primary_after_ns,
                          [&] { clearinghouse.halt(); }});
      }
      const int k = config_.kill_worker_index;
      if (config_.kill_worker_after_ns > 0 && k > 0 &&
          k < static_cast<int>(workers.size())) {
        events.push_back(
            {config_.kill_worker_after_ns, [&, k] { workers[k]->kill(); }});
        if (config_.rejoin_worker_after_ns > config_.kill_worker_after_ns) {
          events.push_back({config_.rejoin_worker_after_ns,
                            [&, k] { workers[k]->rejoin(); }});
        }
      }
      for (const net::NodeEvent& e : config_.node_events) {
        if (e.worker == net::kCoordinatorWorker) {
          if (e.kind == net::NodeFaultKind::kCrash) {
            events.push_back({e.at_ns, [&] { clearinghouse.halt(); }});
          }
          continue;
        }
        // Worker 0 carries the root and is immune, as everywhere else.
        if (e.worker <= 0 || e.worker >= static_cast<int>(workers.size())) {
          continue;
        }
        const int w = e.worker;
        switch (e.kind) {
          case net::NodeFaultKind::kCrash:
            events.push_back({e.at_ns, [&, w] { workers[w]->kill(); }});
            break;
          case net::NodeFaultKind::kReclaim:
            // Owner return: graceful departure through the acked
            // migration-ledger handshake (churn parity with simdist).
            events.push_back({e.at_ns, [&, w] { workers[w]->evict(); }});
            break;
          case net::NodeFaultKind::kRestart:
            events.push_back({e.at_ns, [&, w] { workers[w]->rejoin(); }});
            break;
          case net::NodeFaultKind::kPartition:
          case net::NodeFaultKind::kHeal:
            break;  // no scriptable cut on real sockets
        }
      }
      std::stable_sort(
          events.begin(), events.end(),
          [](const Event& a, const Event& b) { return a.at_ns < b.at_ns; });
      const auto t0 = std::chrono::steady_clock::now();
      for (Event& e : events) {
        std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(e.at_ns));
        {
          std::lock_guard<std::mutex> lock(result_mutex);
          if (result_value.has_value()) return;  // job already over
        }
        e.fire();
      }
    });
  }

  bool finished;
  {
    std::unique_lock<std::mutex> lock(result_mutex);
    finished = result_cv.wait_for(
        lock, std::chrono::duration<double>(config_.timeout_seconds),
        [&] { return result_value.has_value(); });
  }
  const double elapsed = watch.elapsed_seconds();

  if (chaos.joinable()) chaos.join();
  // Wind everything down (the shutdown broadcast already went out if the job
  // finished; make it idempotent either way).
  for (auto& w : workers) w->request_stop();
  for (auto& w : workers) w->join();
  clearinghouse.stop();
  if (backup != nullptr) backup->stop();

  if (!finished) {
    throw std::runtime_error("udp runtime: job timed out after " +
                             std::to_string(config_.timeout_seconds) + " s");
  }

  UdpJobResult result;
  {
    std::lock_guard<std::mutex> lock(result_mutex);
    result.value = std::move(*result_value);
  }
  result.elapsed_seconds = elapsed;
  StatsSnapshot snap = collect_stats(
      workers, [](const auto& w) { return w->stats_snapshot(); });
  result.aggregate = std::move(snap.aggregate);
  result.per_worker = std::move(snap.per_worker);
  for (auto& w : workers) {
    result.messages_sent += w->channel_stats().messages_sent;
  }
  result.recovery = recovery.snapshot();
  return result;
}

UdpJobResult UdpJob::run(const std::string& root, std::vector<Value> args) {
  return run(registry_.id_of(root), std::move(args));
}

}  // namespace phish::rt
