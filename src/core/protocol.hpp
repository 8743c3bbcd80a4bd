// Wire protocol of a running Phish job.
//
// One numbering shared by every transport (simulated, loopback, UDP):
//   * one-way datagrams for dataflow (argument sends), control broadcasts
//     (shutdown, death notices), migration, heartbeats, buffered I/O, and
//     stats reports;
//   * RPC methods for interactions that need a reply (registration,
//     membership updates, steal requests, and the macro scheduler's job
//     traffic).
//
// Everything here is plain encode/decode; behaviour lives in the
// Clearinghouse, the workers, and the JobQ.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/closure.hpp"
#include "core/worker_stats.hpp"
#include "net/address.hpp"

namespace phish::proto {

// ---- One-way message types (must stay below net::kRpcTypeBase). ----
constexpr std::uint16_t kArgument = 1;     // ArgumentMsg: dataflow send
constexpr std::uint16_t kShutdown = 2;     // (empty) job finished, stop
constexpr std::uint16_t kHeartbeat = 3;    // (empty) worker liveness
constexpr std::uint16_t kDead = 4;         // DeadMsg: participant crashed
constexpr std::uint16_t kMigrate = 5;      // MigrateMsg: closures moving in
constexpr std::uint16_t kStatsReport = 6;  // StatsMsg: final per-worker stats
constexpr std::uint16_t kIo = 7;           // IoMsg: application output line

// ---- RPC method ids. ----
constexpr std::uint16_t kRpcRegister = 1;    // worker -> clearinghouse
constexpr std::uint16_t kRpcUnregister = 2;  // worker -> clearinghouse
constexpr std::uint16_t kRpcUpdate = 3;      // worker -> clearinghouse
constexpr std::uint16_t kRpcSteal = 4;       // thief -> victim
// Job result delivery is an RPC (not a one-way datagram) so it survives
// message loss: the sender retransmits until the Clearinghouse acknowledges.
constexpr std::uint16_t kRpcResult = 5;      // worker -> clearinghouse
// Control-plane replication and reliable notifications.  Death notices used
// to ride raw kDead oneways: one dropped datagram left a peer forever
// unaware a participant died.  kRpcControl puts them (and new-primary
// announcements) on the acked, retransmitting RPC path.
constexpr std::uint16_t kRpcChDelta = 6;     // primary ch -> standby ch
constexpr std::uint16_t kRpcControl = 7;     // clearinghouse -> worker
// Migration durability (DESIGN.md failure matrix: migrate-then-crash).
// Cargo delivery is an acked RPC — the departing worker retransmits until a
// successor confirms installation — and the Clearinghouse keeps a migration
// ledger (registered before delivery, holder updated after) so a crash of
// either end re-delivers or redoes the cargo instead of stranding it.
constexpr std::uint16_t kRpcMigrate = 8;        // migrator -> successor
constexpr std::uint16_t kRpcMigrateLedger = 9;  // migrator -> clearinghouse

// Macro level (PhishJobQ / PhishJobD).
constexpr std::uint16_t kRpcSubmitJob = 10;   // user -> jobq
constexpr std::uint16_t kRpcRequestJob = 11;  // jobmanager -> jobq
constexpr std::uint16_t kRpcJobDone = 12;     // clearinghouse -> jobq
// Fair-share accounting and priority preemption (DESIGN.md §11).  A manager
// releases its workstation grant when its worker terminates; the JobQ evicts
// a workstation from a low-priority job by asking its manager to preempt
// (the worker migrates its tasks out first — the paper's case (d) path).
constexpr std::uint16_t kRpcReleaseJob = 13;  // jobmanager -> jobq
constexpr std::uint16_t kRpcPreempt = 14;     // jobq -> jobmanager

// ---- Payloads. ----

struct ArgumentMsg {
  ContRef cont;
  Value value;
  /// Forwarding budget.  A departed worker's stub forwards arguments to its
  /// migration successor; once rejoined workers keep residual stubs, two
  /// nodes could in principle bounce an unknown-closure argument between
  /// each other forever.  Each forward hop decrements ttl; at 0 the message
  /// is dead-lettered instead of forwarded.
  std::uint8_t ttl = 8;

  Bytes encode() const {
    Writer w;
    cont.encode(w);
    value.encode(w);
    w.u8(ttl);
    return w.take();
  }
  static std::optional<ArgumentMsg> decode(const Bytes& b) {
    Reader r(b);
    ArgumentMsg m;
    m.cont = ContRef::decode(r);
    m.value = Value::decode(r);
    m.ttl = r.u8();
    if (!r.ok() || !r.done()) return std::nullopt;
    return m;
  }
};

struct DeadMsg {
  net::NodeId who;

  Bytes encode() const {
    Writer w;
    w.u32(who.value);
    return w.take();
  }
  static std::optional<DeadMsg> decode(const Bytes& b) {
    Reader r(b);
    DeadMsg m;
    m.who = net::NodeId{r.u32()};
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// One steal-ledger entry travelling with a migration: the migrator's redo
/// snapshot for a task stolen by `thief` in its steal call `steal_seq`.  The
/// successor adopts it into its own steal ledger so a later death of the
/// thief, or its cancel of that steal call, still triggers redo even though
/// the original victim has departed.
struct MigrantLedgerEntry {
  net::NodeId thief;
  std::uint64_t steal_seq = 0;
  Closure snapshot;

  void encode(Writer& w) const {
    w.u32(thief.value);
    w.u64(steal_seq);
    snapshot.encode(w);
  }
  static MigrantLedgerEntry decode(Reader& r) {
    MigrantLedgerEntry e;
    e.thief = net::NodeId{r.u32()};
    e.steal_seq = r.u64();
    e.snapshot = Closure::decode(r);
    return e;
  }
};

struct MigrateMsg {
  net::NodeId from;
  std::vector<Closure> closures;
  /// Migration id minted by the origin ((origin << 32) | seq).  Receivers
  /// dedupe installs by id, so retransmits and Clearinghouse re-deliveries
  /// are idempotent.  0 = unledgered migration (dead-letter forwarding).
  std::uint64_t migration_id = 0;
  /// Set when the Clearinghouse re-delivers ledgered cargo after the
  /// previous holder died (counts as migration redo, not a fresh migration).
  bool redelivery = false;
  /// The migrator's outstanding steal-ledger entries (see above).
  std::vector<MigrantLedgerEntry> ledger;

  Bytes encode() const {
    Writer w;
    w.u32(from.value);
    w.u32(static_cast<std::uint32_t>(closures.size()));
    for (const Closure& c : closures) c.encode(w);
    w.u64(migration_id);
    w.boolean(redelivery);
    w.u32(static_cast<std::uint32_t>(ledger.size()));
    for (const MigrantLedgerEntry& e : ledger) e.encode(w);
    return w.take();
  }
  static std::optional<MigrateMsg> decode(const Bytes& b) {
    Reader r(b);
    MigrateMsg m;
    m.from = net::NodeId{r.u32()};
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > (1u << 24)) return std::nullopt;
    m.closures.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Closure c = Closure::decode(r);
      if (!r.ok()) return std::nullopt;  // truncated or structurally invalid
      m.closures.push_back(std::move(c));
    }
    m.migration_id = r.u64();
    m.redelivery = r.boolean();
    const std::uint32_t nl = r.u32();
    if (!r.ok() || nl > (1u << 24)) return std::nullopt;
    m.ledger.reserve(nl);
    for (std::uint32_t i = 0; i < nl; ++i) {
      MigrantLedgerEntry e = MigrantLedgerEntry::decode(r);
      if (!r.ok()) return std::nullopt;
      m.ledger.push_back(std::move(e));
    }
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// kRpcMigrateLedger: the migration durability ledger entry a departing
/// worker registers at the Clearinghouse *before* handing its cargo to a
/// successor, and updates (empty cargo, new holder) *after* the successor
/// acknowledged installation.  While `holder` is the migrator itself the
/// cargo snapshot lives here; once the holder moves to the successor the
/// closures run there and this entry is only the redo record consulted when
/// the holder later dies.
struct MigrationLedgerMsg {
  std::uint64_t migration_id = 0;
  net::NodeId from;    // the departing (origin) worker
  net::NodeId holder;  // who currently owns the cargo
  std::vector<Closure> closures;            // cargo snapshot (register only)
  std::vector<MigrantLedgerEntry> ledger;   // migrator's steal-ledger export

  Bytes encode() const {
    Writer w;
    w.u64(migration_id);
    w.u32(from.value);
    w.u32(holder.value);
    w.u32(static_cast<std::uint32_t>(closures.size()));
    for (const Closure& c : closures) c.encode(w);
    w.u32(static_cast<std::uint32_t>(ledger.size()));
    for (const MigrantLedgerEntry& e : ledger) e.encode(w);
    return w.take();
  }
  static std::optional<MigrationLedgerMsg> decode(const Bytes& b) {
    Reader r(b);
    MigrationLedgerMsg m;
    m.migration_id = r.u64();
    m.from = net::NodeId{r.u32()};
    m.holder = net::NodeId{r.u32()};
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > (1u << 24)) return std::nullopt;
    m.closures.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Closure c = Closure::decode(r);
      if (!r.ok()) return std::nullopt;
      m.closures.push_back(std::move(c));
    }
    const std::uint32_t nl = r.u32();
    if (!r.ok() || nl > (1u << 24)) return std::nullopt;
    m.ledger.reserve(nl);
    for (std::uint32_t i = 0; i < nl; ++i) {
      MigrantLedgerEntry e = MigrantLedgerEntry::decode(r);
      if (!r.ok()) return std::nullopt;
      m.ledger.push_back(std::move(e));
    }
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct StatsMsg {
  net::NodeId who;
  WorkerStats stats;
  std::uint64_t start_ns = 0;  // when the participant joined
  std::uint64_t end_ns = 0;    // when it finished/left

  Bytes encode() const {
    Writer w;
    w.u32(who.value);
    stats.encode(w);
    w.u64(start_ns);
    w.u64(end_ns);
    return w.take();
  }
  static std::optional<StatsMsg> decode(const Bytes& b) {
    Reader r(b);
    StatsMsg m;
    m.who = net::NodeId{r.u32()};
    m.stats = WorkerStats::decode(r);
    m.start_ns = r.u64();
    m.end_ns = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct IoMsg {
  net::NodeId who;
  std::string text;

  Bytes encode() const {
    Writer w;
    w.u32(who.value);
    w.str(text);
    return w.take();
  }
  static std::optional<IoMsg> decode(const Bytes& b) {
    Reader r(b);
    IoMsg m;
    m.who = net::NodeId{r.u32()};
    m.text = r.str();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// Membership snapshot returned by register/update RPCs when the caller
/// presented no epoch (legacy full snapshot; see MembershipUpdate for the
/// delta path sustained churn rides).
struct Membership {
  std::uint64_t epoch = 0;
  std::vector<net::NodeId> participants;

  Bytes encode() const {
    Writer w;
    w.u64(epoch);
    w.u32(static_cast<std::uint32_t>(participants.size()));
    for (net::NodeId p : participants) w.u32(p.value);
    return w.take();
  }
  static std::optional<Membership> decode(const Bytes& b) {
    Reader r(b);
    Membership m;
    m.epoch = r.u64();
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > (1u << 20)) return std::nullopt;
    m.participants.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      m.participants.push_back(net::NodeId{r.u32()});
    }
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// Delta-capable membership reply (sustained churn).  Returned by
/// kRpcRegister / kRpcUpdate *only* when the caller presented a nonzero
/// known epoch, so both ends always agree on the encoding.  When the
/// Clearinghouse's bounded change log still covers [since_epoch+1, epoch],
/// the reply carries just the joins and leaves in that window — O(churn)
/// instead of O(P) per refresh, which is what keeps a register storm from
/// amplifying into a membership-snapshot storm.  Otherwise `full` is set
/// and `participants` carries the whole snapshot as a fallback.
struct MembershipUpdate {
  std::uint64_t epoch = 0;
  bool full = false;
  std::vector<net::NodeId> participants;  // full snapshot when `full`
  std::vector<net::NodeId> joined;        // delta when !`full`
  std::vector<net::NodeId> left;

  Bytes encode() const {
    Writer w;
    w.u64(epoch);
    w.boolean(full);
    const auto put = [&w](const std::vector<net::NodeId>& v) {
      w.u32(static_cast<std::uint32_t>(v.size()));
      for (net::NodeId p : v) w.u32(p.value);
    };
    put(participants);
    put(joined);
    put(left);
    return w.take();
  }
  static std::optional<MembershipUpdate> decode(const Bytes& b) {
    Reader r(b);
    MembershipUpdate m;
    m.epoch = r.u64();
    m.full = r.boolean();
    const auto get = [&r](std::vector<net::NodeId>& v) {
      const std::uint32_t n = r.u32();
      if (!r.ok() || n > (1u << 20)) return false;
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) v.push_back(net::NodeId{r.u32()});
      return true;
    };
    if (!get(m.participants) || !get(m.joined) || !get(m.left)) {
      return std::nullopt;
    }
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// kRpcUpdate request arguments.  An empty payload (the legacy request)
/// decodes as since_epoch 0 and gets a full Membership snapshot back;
/// since_epoch > 0 asks for a MembershipUpdate delta.
struct UpdateRequest {
  std::uint64_t since_epoch = 0;

  Bytes encode() const {
    Writer w;
    w.u64(since_epoch);
    return w.take();
  }
  static std::optional<UpdateRequest> decode(const Bytes& b) {
    UpdateRequest m;
    if (b.empty()) return m;  // legacy full-snapshot request
    Reader r(b);
    m.since_epoch = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// Steal RPC: request carries the thief's id and how many tasks it will
/// accept; the reply carries up to that many closures (the victim also caps
/// the batch at half its ready list — steal-half — and at
/// WorkerCore::kMaxStealBatch).
struct StealRequest {
  net::NodeId thief;
  std::uint16_t max_tasks = 1;
  /// The thief's count of steal requests sent, this one included: names the
  /// steal in the victim's ledger so a failed call can be cancelled.
  std::uint64_t seq = 0;

  Bytes encode() const {
    Writer w;
    w.u32(thief.value);
    w.u16(max_tasks);
    w.u64(seq);
    return w.take();
  }
  static std::optional<StealRequest> decode(const Bytes& b) {
    Reader r(b);
    StealRequest m;
    m.thief = net::NodeId{r.u32()};
    m.max_tasks = r.u16();
    m.seq = r.u64();
    if (!r.done() || m.max_tasks == 0) return std::nullopt;
    return m;
  }
};

/// Registration arguments.  An empty payload decodes as incarnation 1, so
/// pre-failover senders stay wire-compatible.  A worker that rejoins a
/// running job after a crash registers with a higher incarnation; the
/// Clearinghouse treats a re-registration with a newer incarnation as proof
/// the old incarnation died (declare-dead + redo broadcast) before admitting
/// the new one.
struct RegisterMsg {
  std::uint32_t incarnation = 1;
  /// Last membership epoch this worker applied (0 = none).  Nonzero asks
  /// the Clearinghouse to reply with a MembershipUpdate delta instead of a
  /// full snapshot — the rejoin path's O(P) cost under sustained churn.
  std::uint64_t known_epoch = 0;

  Bytes encode() const {
    Writer w;
    w.u32(incarnation);
    w.u64(known_epoch);
    return w.take();
  }
  static std::optional<RegisterMsg> decode(const Bytes& b) {
    RegisterMsg m;
    if (b.empty()) return m;  // legacy empty registration
    Reader r(b);
    m.incarnation = r.u32();
    if (r.ok() && !r.done()) m.known_epoch = r.u64();  // pre-churn: 4 bytes
    if (!r.done() || m.incarnation == 0) return std::nullopt;
    return m;
  }
};

/// Unregistration arguments: the sender's incarnation, so a previous
/// incarnation's unregister that arrives late (a retransmit that outlived
/// its crash and rejoin) cannot remove the live one.  An empty payload
/// decodes as incarnation 1, as RegisterMsg's does.
struct UnregisterMsg {
  std::uint32_t incarnation = 1;

  Bytes encode() const {
    Writer w;
    w.u32(incarnation);
    return w.take();
  }
  static std::optional<UnregisterMsg> decode(const Bytes& b) {
    UnregisterMsg m;
    if (b.empty()) return m;
    Reader r(b);
    m.incarnation = r.u32();
    if (!r.done() || m.incarnation == 0) return std::nullopt;
    return m;
  }
};

/// Reliable control notification (rides kRpcControl, so it retransmits until
/// acknowledged).  One message type for the clearinghouse-to-worker control
/// plane: death notices and new-primary announcements.
struct ControlMsg {
  enum Kind : std::uint8_t {
    kDeadNotice = 1,  // `who` was declared dead: redo its stolen work
    kNewPrimary = 2,  // `who` is the acting Clearinghouse as of `view`
    // Migration cargo was re-delivered to `who` after the previous holder
    // died: the departed origin's stub must re-target its forwarding and
    // replay its logged post-drain argument fills at the new holder.
    kReroute = 3,
    // Ledger entry `view` was retired (its holder gracefully finished the
    // cargo, or a superseding drain re-snapshotted it); `who` is the origin
    // being notified.  The origin's stub may stop retaining the fill log it
    // kept for a kReroute replay once none of its migrations remain
    // outstanding.  Purely a memory/traffic optimisation — a lost notice
    // only means the log is retained longer.
    kMigrationRetired = 4,
    // Thief `who`'s steal call number `view` failed: the victim redoes what
    // it served that call (the thief never installed it) and refuses the
    // request if it arrives later.
    kStealCancel = 5,
  };
  std::uint8_t kind = kDeadNotice;
  net::NodeId who;
  /// kNewPrimary: promotion view / kReroute, kMigrationRetired: mig id /
  /// kStealCancel: the thief's steal seq.
  std::uint64_t view = 0;

  Bytes encode() const {
    Writer w;
    w.u8(kind);
    w.u32(who.value);
    w.u64(view);
    return w.take();
  }
  static std::optional<ControlMsg> decode(const Bytes& b) {
    Reader r(b);
    ControlMsg m;
    m.kind = r.u8();
    m.who = net::NodeId{r.u32()};
    m.view = r.u64();
    if (!r.done()) return std::nullopt;
    if (m.kind != kDeadNotice && m.kind != kNewPrimary &&
        m.kind != kReroute && m.kind != kMigrationRetired &&
        m.kind != kStealCancel) {
      return std::nullopt;
    }
    return m;
  }
};

/// Epoch-numbered control-plane state delta, primary -> standby.  Small
/// state (membership, dead list, result) travels as a full snapshot every
/// delta; unbounded logs (I/O, stats reports) travel as tails past the
/// standby's acknowledged watermark, which the reply carries back.
struct ChDeltaMsg {
  std::uint64_t seq = 0;    // monotone replication sequence number
  std::uint64_t view = 0;   // sender's primary view (fencing)
  std::uint64_t epoch = 0;  // membership epoch at the primary
  std::vector<net::NodeId> participants;
  std::vector<net::NodeId> dead;
  std::optional<Value> result;
  std::uint64_t io_base = 0;  // index of io[0] in the primary's full log
  std::vector<IoMsg> io;
  std::uint64_t stats_base = 0;
  std::vector<StatsMsg> stats;
  /// Migration durability ledger snapshot (small: one entry per in-flight
  /// or completed-but-unretired migration), so a promoted standby can keep
  /// re-delivering cargo when holders die after the old primary did.
  std::vector<MigrationLedgerMsg> migrations;
  /// Latest registered incarnation of every node, so a promoted standby
  /// ignores stale registers and unregisters as the primary did.
  std::vector<std::pair<net::NodeId, std::uint32_t>> incarnations;

  Bytes encode() const {
    Writer w;
    w.u64(seq);
    w.u64(view);
    w.u64(epoch);
    w.u32(static_cast<std::uint32_t>(participants.size()));
    for (net::NodeId p : participants) w.u32(p.value);
    w.u32(static_cast<std::uint32_t>(dead.size()));
    for (net::NodeId d : dead) w.u32(d.value);
    w.boolean(result.has_value());
    if (result) result->encode(w);
    w.u64(io_base);
    w.u32(static_cast<std::uint32_t>(io.size()));
    for (const IoMsg& m : io) {
      const Bytes b = m.encode();
      w.blob(b.data(), b.size());
    }
    w.u64(stats_base);
    w.u32(static_cast<std::uint32_t>(stats.size()));
    for (const StatsMsg& m : stats) {
      const Bytes b = m.encode();
      w.blob(b.data(), b.size());
    }
    w.u32(static_cast<std::uint32_t>(migrations.size()));
    for (const MigrationLedgerMsg& m : migrations) {
      const Bytes b = m.encode();
      w.blob(b.data(), b.size());
    }
    w.u32(static_cast<std::uint32_t>(incarnations.size()));
    for (const auto& [node, inc] : incarnations) {
      w.u32(node.value);
      w.u32(inc);
    }
    return w.take();
  }
  static std::optional<ChDeltaMsg> decode(const Bytes& b) {
    Reader r(b);
    ChDeltaMsg m;
    m.seq = r.u64();
    m.view = r.u64();
    m.epoch = r.u64();
    const std::uint32_t np = r.u32();
    if (!r.ok() || np > (1u << 20)) return std::nullopt;
    m.participants.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i) {
      m.participants.push_back(net::NodeId{r.u32()});
    }
    const std::uint32_t nd = r.u32();
    if (!r.ok() || nd > (1u << 20)) return std::nullopt;
    m.dead.reserve(nd);
    for (std::uint32_t i = 0; i < nd; ++i) {
      m.dead.push_back(net::NodeId{r.u32()});
    }
    if (r.boolean()) m.result = Value::decode(r);
    m.io_base = r.u64();
    const std::uint32_t nio = r.u32();
    if (!r.ok() || nio > (1u << 24)) return std::nullopt;
    for (std::uint32_t i = 0; i < nio; ++i) {
      auto io = IoMsg::decode(r.blob());
      if (!io) return std::nullopt;
      m.io.push_back(std::move(*io));
    }
    m.stats_base = r.u64();
    const std::uint32_t ns = r.u32();
    if (!r.ok() || ns > (1u << 24)) return std::nullopt;
    for (std::uint32_t i = 0; i < ns; ++i) {
      auto s = StatsMsg::decode(r.blob());
      if (!s) return std::nullopt;
      m.stats.push_back(std::move(*s));
    }
    const std::uint32_t nm = r.u32();
    if (!r.ok() || nm > (1u << 20)) return std::nullopt;
    for (std::uint32_t i = 0; i < nm; ++i) {
      auto mig = MigrationLedgerMsg::decode(r.blob());
      if (!mig) return std::nullopt;
      m.migrations.push_back(std::move(*mig));
    }
    const std::uint32_t ni = r.u32();
    if (!r.ok() || ni > (1u << 20)) return std::nullopt;
    for (std::uint32_t i = 0; i < ni; ++i) {
      const net::NodeId node{r.u32()};
      m.incarnations.emplace_back(node, r.u32());
    }
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// Reply to kRpcChDelta: the standby's applied watermarks, plus its role so
/// a healed old primary discovers it has been superseded (view fencing).
struct ChDeltaAck {
  std::uint64_t applied_seq = 0;
  std::uint64_t io_count = 0;     // io entries the standby now holds
  std::uint64_t stats_count = 0;  // stats reports the standby now holds
  std::uint64_t view = 0;         // standby's current view
  bool promoted = false;          // standby considers itself primary

  Bytes encode() const {
    Writer w;
    w.u64(applied_seq);
    w.u64(io_count);
    w.u64(stats_count);
    w.u64(view);
    w.boolean(promoted);
    return w.take();
  }
  static std::optional<ChDeltaAck> decode(const Bytes& b) {
    Reader r(b);
    ChDeltaAck m;
    m.applied_seq = r.u64();
    m.io_count = r.u64();
    m.stats_count = r.u64();
    m.view = r.u64();
    m.promoted = r.boolean();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

struct StealReply {
  std::vector<Closure> tasks;

  bool empty() const noexcept { return tasks.empty(); }

  Bytes encode() const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(tasks.size()));
    for (const Closure& c : tasks) c.encode(w);
    return w.take();
  }
  static std::optional<StealReply> decode(const Bytes& b) {
    Reader r(b);
    StealReply m;
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > (1u << 16)) return std::nullopt;
    m.tasks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Closure c = Closure::decode(r);
      // Closure::decode fails the reader on truncated or structurally
      // absurd payloads; bail before installing garbage.
      if (!r.ok()) return std::nullopt;
      m.tasks.push_back(std::move(c));
    }
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// kRpcReleaseJob: a PhishJobManager tells the JobQ its workstation no
/// longer runs a worker for `job_id` (terminated, finished, or preempted),
/// so the fair-share ledger can hand the workstation to another tenant.
struct ReleaseJobMsg {
  std::uint64_t job_id = 0;

  Bytes encode() const {
    Writer w;
    w.u64(job_id);
    return w.take();
  }
  static std::optional<ReleaseJobMsg> decode(const Bytes& b) {
    Reader r(b);
    ReleaseJobMsg m;
    m.job_id = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

/// kRpcPreempt: the JobQ asks a PhishJobManager to evict its running worker
/// for `victim_job` so the workstation can serve the higher-priority
/// `for_job`.  The manager replies boolean: true = eviction initiated.
struct PreemptMsg {
  std::uint64_t victim_job = 0;
  std::uint64_t for_job = 0;

  Bytes encode() const {
    Writer w;
    w.u64(victim_job);
    w.u64(for_job);
    return w.take();
  }
  static std::optional<PreemptMsg> decode(const Bytes& b) {
    Reader r(b);
    PreemptMsg m;
    m.victim_job = r.u64();
    m.for_job = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  }
};

}  // namespace phish::proto
