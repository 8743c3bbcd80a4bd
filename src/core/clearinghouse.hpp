// The Clearinghouse (paper Section 3, Figure 3).
//
// "The Clearinghouse is a special program (independent of the particular
// application) that is responsible for keeping track of all worker processes
// participating in the job and providing various services to the workers."
//
// Services implemented here:
//   * registration / unregistration and epoch-numbered membership snapshots
//     (workers fetch these periodically to learn about other participants);
//   * receipt of the job's final result (the root continuation points here)
//     and the shutdown broadcast that ends the job;
//   * buffered application I/O ("a user need only watch the Clearinghouse to
//     see job output");
//   * heartbeat-based crash detection with death broadcasts, driving the
//     redo-based fault tolerance ("enough redundant state is maintained so
//     that lost work can be redone in the event of a machine crash");
//   * collection of final per-worker statistics (Table 2's raw data).
//
// The class is transport-agnostic: it speaks through an RpcNode and a
// TimerService, so the same code serves the simulated network and real UDP
// sockets.  Single-threaded: every call comes from the one thread of control
// that delivers its messages and timers (the simulator, or its node's
// NodeLoop on real sockets).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "net/rpc.hpp"

namespace phish {

struct ClearinghouseConfig {
  /// A participant missing heartbeats for this long is declared dead.
  std::uint64_t heartbeat_timeout_ns = 10'000'000'000ULL;  // 10 s
  /// How often the failure detector scans.
  std::uint64_t failure_check_period_ns = 2'000'000'000ULL;  // 2 s
  /// Disable crash detection entirely (e.g. measurement runs with no
  /// failures, where timeouts would only add noise).
  bool detect_failures = true;
  /// Warm standby: the primary pushes a state delta this often; the delta
  /// stream doubles as the primary's lease renewal.
  std::uint64_t replicate_period_ns = 250'000'000ULL;  // 250 ms
  /// Standby: promote once no delta has arrived for this long.
  std::uint64_t lease_timeout_ns = 1'000'000'000ULL;  // 1 s
  std::uint64_t lease_check_period_ns = 250'000'000ULL;
};

/// Root continuation for a job whose Clearinghouse lives at `ch`.
inline ContRef clearinghouse_continuation(net::NodeId ch) {
  return ContRef{ClosureId{ch, 0}, 0, ch};
}

class RecoveryTracker;

class Clearinghouse {
 public:
  /// Replica role.  kDemoted is a former primary that learned (via a
  /// view-fenced delta ack) that the standby promoted past it; it goes
  /// silent so exactly one replica acts as primary.
  enum class Role : std::uint8_t { kPrimary, kStandby, kDemoted, kHalted };

  Clearinghouse(net::RpcNode& rpc, net::TimerService& timers,
                ClearinghouseConfig config = {});
  ~Clearinghouse();

  Clearinghouse(const Clearinghouse&) = delete;
  Clearinghouse& operator=(const Clearinghouse&) = delete;

  /// Install RPC handlers and start the failure detector (primary role).
  void start();
  /// Warm standby: apply deltas from `primary`, record worker heartbeats,
  /// and promote when the primary misses its lease.
  void start_standby(net::NodeId primary);
  /// Primary side: begin pushing state deltas to `standby`.
  void set_standby(net::NodeId standby);
  /// Stop timers (handlers stay installed; the job is over anyway).
  void stop();
  /// Simulate a coordinator crash: stop timers and drop all traffic, both
  /// directions, at the RPC layer.  Irreversible for this object.
  void halt();
  /// Standby -> primary.  Normally driven by the lease watchdog; public so
  /// tests can force the transition.
  void promote();

  net::NodeId id() const { return rpc_.id(); }
  Role role() const { return role_; }
  std::uint64_t view() const { return view_; }
  /// True for a replica currently acting as the coordinator.
  bool acting_primary() const { return role_ == Role::kPrimary; }

  void set_recovery_tracker(RecoveryTracker* tracker) { tracker_ = tracker; }

  /// Fires when the job's result arrives (after the shutdown broadcast).
  void set_on_result(std::function<void(const Value&)> fn) {
    on_result_ = std::move(fn);
  }
  /// Fires when a participant is declared dead, after the death broadcast.
  void set_on_death(std::function<void(net::NodeId)> fn) {
    on_death_ = std::move(fn);
  }
  /// Fires when membership changes (register/unregister/death).
  void set_on_membership_change(std::function<void(std::size_t)> fn) {
    on_membership_change_ = std::move(fn);
  }

  // ---- Observers. ----
  proto::Membership membership() const {
    return proto::Membership{epoch_, participants_};
  }
  std::optional<Value> result() const { return result_; }
  std::vector<proto::StatsMsg> stats_reports() const { return stats_reports_; }
  std::vector<proto::IoMsg> io_log() const { return io_log_; }
  std::vector<net::NodeId> declared_dead() const { return dead_; }
  /// Migration durability ledger entries currently retained (tests).
  std::size_t migration_ledger_size() const {
    return migration_ledger_.size();
  }
  /// One line of coordinator state for stall diagnosis: role, view, epoch,
  /// participants, and each migration-ledger entry (id, origin, holder).
  std::string describe() const;

 private:
  /// One ledgered migration: the wire record (from/holder/cargo/steal-ledger
  /// export) plus primary-side redelivery bookkeeping.  Entries are retained
  /// until the holder gracefully retires them (its own superseding migration
  /// or an empty-handed unregister) or the job ends — mirroring the worker
  /// steal ledger's never-released idiom.
  struct MigrationEntry {
    proto::MigrationLedgerMsg record;
    /// Incarnation of `record.holder` when the holder was last set (0 when
    /// unknown, e.g. after a standby promotion rebuilt the ledger from a
    /// delta): a holder that re-registers with a higher incarnation lost
    /// the cargo even though it is back in the membership list.
    std::uint32_t holder_inc = 0;
    bool redelivery_in_flight = false;
  };

  void install_primary_handlers();
  Bytes handle_register(net::NodeId src, const Bytes& args);
  Bytes handle_unregister(net::NodeId src, const Bytes& args);
  Bytes handle_update(const Bytes& args);
  Bytes handle_delta(net::NodeId src, const Bytes& args);
  Bytes handle_migration_ledger(net::NodeId src, const Bytes& args);
  /// Drop ledger entries originated by `dead` (its victims' standard
  /// death-redo re-executes everything it ever held, and redelivered
  /// waiting joins whose fills route through a crashed origin could never
  /// complete).  Call at death declaration.
  void drop_migrations_from(net::NodeId dead);
  /// Find entries whose holder is gone (left membership, or re-registered
  /// as a fresh incarnation) and redeliver their cargo to the lowest-id
  /// live participant.
  void redeliver_orphans();
  void send_redelivery(net::NodeId target,
                       const proto::MigrationLedgerMsg& rec);
  /// Tell origin `origin` that ledger entry `mid` is retired: no reroute can
  /// replay its fill log any more, so its forwarding stub may drop it.
  /// Best-effort (acked, but a loss only delays reclamation).
  void send_retirement(net::NodeId origin, std::uint64_t mid);
  void handle_oneway(net::Message&& message);
  void accept_result(net::NodeId src, Value value);
  void check_failures();
  void replicate_tick();
  void lease_tick();
  /// Reliable death notice to each target (acked kRpcControl; satellite of
  /// the old lossy kDead oneway).
  void broadcast_death(net::NodeId dead, const std::vector<net::NodeId>& to);
  /// Record one membership change (join or leave) at the current epoch in
  /// the bounded change log.  Call after bumping epoch_.
  void log_change(net::NodeId node, bool joined);
  /// Delta since `since_epoch` when the change log covers the window; full
  /// snapshot (full = true) otherwise.
  proto::MembershipUpdate membership_update(std::uint64_t since_epoch) const;

  net::RpcNode& rpc_;
  net::TimerService& timers_;
  ClearinghouseConfig config_;

  Role role_ = Role::kPrimary;
  std::uint64_t view_ = 1;  // bumps on every promotion, fences stale primaries
  net::NodeId peer_{};      // standby (when primary) / primary (when standby)
  std::uint64_t epoch_ = 1;
  std::vector<net::NodeId> participants_;
  std::map<net::NodeId, std::uint32_t> incarnations_;
  std::map<net::NodeId, std::uint64_t> last_heartbeat_;
  std::vector<net::NodeId> dead_;
  /// One entry per epoch bump: who changed and in which direction.  Bounded
  /// by kMembershipLogLimit (clearinghouse.cpp); deltas that would reach
  /// past the oldest retained entry fall back to a full snapshot.
  struct EpochChange {
    std::uint64_t epoch;
    net::NodeId node;
    bool joined;
  };
  std::deque<EpochChange> change_log_;
  /// Migration durability ledger, keyed by migration id.
  std::map<std::uint64_t, MigrationEntry> migration_ledger_;
  std::optional<Value> result_;
  std::vector<proto::StatsMsg> stats_reports_;
  std::vector<proto::IoMsg> io_log_;
  net::TimerToken failure_timer_{};
  net::TimerToken replicate_timer_{};
  net::TimerToken lease_timer_{};
  // Primary-side replication cursor.
  std::uint64_t delta_seq_ = 0;
  std::size_t io_acked_ = 0;
  std::size_t stats_acked_ = 0;
  bool delta_in_flight_ = false;
  // Standby-side lease.
  std::uint64_t applied_seq_ = 0;
  std::uint64_t last_delta_ns_ = 0;
  bool running_ = false;
  RecoveryTracker* tracker_ = nullptr;

  std::function<void(const Value&)> on_result_;
  std::function<void(net::NodeId)> on_death_;
  std::function<void(std::size_t)> on_membership_change_;
};

}  // namespace phish
