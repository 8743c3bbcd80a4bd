// Deterministic fault injection for every transport.
//
// The paper's claim is not that Phish is fast on a quiet network but that it
// keeps adaptively-parallel jobs correct while workstations join, leave
// (owner returns), crash, and the network mangles datagrams.  This module
// turns those failure modes into a *scriptable, seeded schedule* — a
// FaultPlan — that replays byte-for-byte:
//
//   * per-link message faults (drop, duplicate, reorder, extra delay), and
//   * node-level events (crash, partition, heal/restart, forced owner
//     reclaim) in virtual time.
//
// One plan drives all transports.  SimNetwork consults a FaultInjector
// natively (virtual-time faults, including delay); LoopNetwork and the UDP
// runtime get the same link faults through the FaultyChannel decorator,
// which wraps any net::Channel without the scheduler code noticing.
//
// Determinism: every link-fault decision is a pure function of
// (plan seed, src, dst, per-link sequence number).  The sequence number is
// counted per (src, dst) pair at the injection point, so the decision for
// "the 7th message A sent to B" is the same regardless of thread
// interleaving or what other links are doing — a failing chaos seed replays
// exactly, even over real sockets.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "util/rng.hpp"

namespace phish::net {

/// One per-link fault rule.  A rule applies to messages whose source and
/// destination match (kNilNode = wildcard) and whose per-link 1-based
/// sequence number lies in [first_seq, last_seq].  The first matching rule
/// decides; probabilities within a rule are evaluated as disjoint bands of
/// one uniform draw (drop first, then duplicate, reorder, delay).
struct LinkRule {
  NodeId src = kNilNode;  // kNilNode matches any sender
  NodeId dst = kNilNode;  // kNilNode matches any receiver
  std::uint64_t first_seq = 1;
  std::uint64_t last_seq = std::numeric_limits<std::uint64_t>::max();
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double delay = 0.0;
  /// Extra latency when the delay band fires (virtual-time transports).
  std::uint64_t extra_delay_ns = 0;
  /// When the reorder band fires, the message is held back until this many
  /// later messages from the same channel have been sent.
  int reorder_depth = 2;

  bool matches(NodeId s, NodeId d, std::uint64_t seq) const noexcept {
    return (src == kNilNode || src == s) && (dst == kNilNode || dst == d) &&
           seq >= first_seq && seq <= last_seq;
  }
};

/// Node-level fault kinds, mapping the paper's failure modes (machine crash,
/// owner return) plus transient network outages.  Consumed by runtimes that
/// own a virtual clock (SimCluster); link faults alone apply elsewhere.
enum class NodeFaultKind : std::uint8_t {
  kCrash,      // machine vanishes; redo machinery must recover
  kPartition,  // node unreachable (network cut); the process keeps running
  kHeal,       // partition ends
  kRestart,    // a crashed worker rejoins as a fresh incarnation; on a
               // merely partitioned (still-running) node, same as kHeal
  kReclaim,    // owner returns: worker migrates its closures and departs
};

const char* to_string(NodeFaultKind kind) noexcept;

/// NodeEvent::worker value addressing the coordinator (the primary
/// Clearinghouse) instead of a worker: kCrash halts the primary mid-job,
/// exercising warm-standby promotion.
inline constexpr int kCoordinatorWorker = -1;

struct NodeEvent {
  std::uint64_t at_ns = 0;  // virtual time
  NodeFaultKind kind = NodeFaultKind::kCrash;
  /// Worker *index* (SimCluster order), not a NodeId; kCoordinatorWorker
  /// targets the primary Clearinghouse.
  int worker = 0;
};

/// A seeded, scriptable schedule of faults.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<LinkRule> links;
  std::vector<NodeEvent> events;
  /// Message types that are never *dropped* (they remain eligible for
  /// duplicate / reorder / delay, which the protocol must absorb through
  /// idempotent slot fills).  Phish layers reliability selectively: RPC
  /// frames retransmit (death notices now ride that acked path) and
  /// heartbeats are periodic, so losing them is part of the contract — but
  /// plain-oneway dataflow (kArgument, kMigrate) has no retransmit path,
  /// exactly as in the paper's prototype.  Dropping those would model a
  /// failure mode the protocol never claimed to survive and simply hang
  /// the job.
  std::vector<std::uint16_t> lossless_types;
  /// Topology behind correlated failures: racks[r] lists the worker indices
  /// sharing failure domain r (power strip, switch).  Churn plans kill whole
  /// racks at once; empty = no correlated events in this plan.
  std::vector<std::vector<int>> racks;

  bool empty() const noexcept { return links.empty() && events.empty(); }
  bool is_lossless(std::uint16_t type) const noexcept;

  /// Human-readable dump, printed on chaos-test failure so the exact plan
  /// can be replayed.
  std::string describe() const;
};

enum class SendAction : std::uint8_t {
  kDeliver,
  kDrop,
  kDuplicate,
  kHold,   // reorder: hold back past the next `hold_for` sends
  kDelay,  // deliver after extra_delay_ns (virtual-time transports)
};

struct SendDecision {
  SendAction action = SendAction::kDeliver;
  std::uint64_t extra_delay_ns = 0;
  int hold_for = 0;
};

/// Per-message counters kept by the injection points (FaultyChannel and
/// SimNetwork); separate from ChannelStats so wire accounting stays honest.
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;
};

/// Deterministic decision engine for a plan's link rules.  decide() is a
/// pure function; on_send() additionally counts per-link sequence numbers.
/// Not internally synchronized — callers that share an injector across
/// threads (FaultyChannel) serialize on their own lock.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Decision for the seq-th message (1-based) ever sent src -> dst.
  SendDecision decide(NodeId src, NodeId dst, std::uint16_t type,
                      std::uint64_t seq) const;

  /// Count the next message on (src, dst) and decide its fate.
  SendDecision on_send(NodeId src, NodeId dst, std::uint16_t type);

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  std::unordered_map<std::uint64_t, std::uint64_t> link_seq_;
};

/// Channel decorator applying a plan's link faults to outbound traffic.
/// Works on any transport; the wrapped channel (and everything behind it —
/// RpcNode, WorkerCore) is none the wiser.  Reorder is implemented by
/// holding a message back until `reorder_depth` later sends have gone out;
/// a held message that never accumulates enough successors is released by
/// flush() (or stays undelivered, which the unreliable-datagram contract
/// permits).  kDelay degrades to deliver: a real-time channel has no clock
/// to delay against; use SimNetwork's native hook for timed faults.
///
/// Thread-safe: any thread may send, not only the node's loop.
class FaultyChannel final : public Channel {
 public:
  FaultyChannel(Channel& inner, const FaultPlan& plan)
      : inner_(inner), injector_(plan) {}

  NodeId id() const override { return inner_.id(); }
  void send(NodeId dst, std::uint16_t type, Bytes payload) override;
  void set_receiver(Receiver receiver) override {
    inner_.set_receiver(std::move(receiver));
  }
  /// Wire accounting of the underlying channel (dropped messages never hit
  /// the wire; duplicates hit it twice).
  const ChannelStats& stats() const override { return inner_.stats(); }

  FaultStats fault_stats() const;

  /// Release every held message (in original order), e.g. at teardown.
  void flush();

 private:
  struct Held {
    NodeId dst;
    std::uint16_t type;
    Bytes payload;
    int remaining;
  };

  Channel& inner_;
  FaultInjector injector_;
  mutable std::mutex mutex_;  // guards injector_, held_, fault_stats_
  std::vector<Held> held_;
  FaultStats fault_stats_;
};

}  // namespace phish::net
