// Split-phase remote procedure calls over unreliable datagrams.
//
// The paper: "almost all communications are done with split-phase operations;
// that is, the runtime system almost always works while waiting for a reply
// message.  In order to achieve split-phase communications, all communications
// are implemented on top of UDP/IP messages."
//
// RpcNode layers exactly that on a Channel:
//   * call()  — asynchronous request with retransmission and exponential
//               backoff; the caller keeps working and a completion callback
//               fires with the reply (or failure after the retry budget).
//   * serve() — register a method handler; duplicate requests (retransmits
//               that crossed a reply in flight) are answered from a bounded
//               reply cache without re-running the handler, making methods
//               effectively at-most-once.
//   * send_oneway()/set_oneway_handler() — raw datagrams for traffic that has
//               application-level reliability (argument sends are made
//               idempotent by closure slot fill-flags instead).
//
// Thread-safety: safe for concurrent use (a caller's thread, the channel's
// loop and a timer thread may all call in); no lock is held while user
// callbacks run.
#pragma once

#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "net/channel.hpp"
#include "net/timer_service.hpp"
#include "obs/clock.hpp"
#include "obs/tracer.hpp"

namespace phish::net {

/// Channel message types at and above this value are reserved for RPC frames.
constexpr std::uint16_t kRpcTypeBase = 0xff00;
constexpr std::uint16_t kRpcRequest = 0xff01;
constexpr std::uint16_t kRpcReply = 0xff02;

struct RetryPolicy {
  std::uint64_t timeout_ns = 200'000'000;  // cold-start RTO (no RTT samples)
  int max_attempts = 5;
  double backoff = 2.0;
  /// Fraction of each timeout added as deterministic pseudo-random jitter in
  /// [0, jitter), derived from (jitter seed, request id, attempt): many
  /// workers backing off from the same loss burst must not retransmit in
  /// lockstep.
  double jitter = 0.1;
  /// Start from the per-peer Jacobson RTO (srtt + 4*rttvar, clamped to
  /// [min_timeout_ns, timeout_ns]) once a peer has an RTT sample; timeout_ns
  /// stays the cold-start value and the adaptive ceiling, so a policy tuned
  /// for a chaos profile never waits *longer* than configured, only recovers
  /// faster on a quiet link.
  bool adaptive = true;
  std::uint64_t min_timeout_ns = 5'000'000;
};

/// Per-peer smoothed RTT state (Jacobson/Karn, RFC 6298 gains).
struct RttEstimate {
  bool valid = false;
  double srtt_ns = 0;
  double rttvar_ns = 0;
  std::uint64_t samples = 0;
};

struct RpcResult {
  bool ok = false;
  Bytes reply;
};

struct RpcStats {
  std::uint64_t calls_started = 0;
  std::uint64_t calls_succeeded = 0;
  std::uint64_t calls_failed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicate_requests = 0;  // served from the reply cache
  std::uint64_t rtt_samples = 0;  // replies accepted into an estimator
};

class RpcNode {
 public:
  using MethodHandler = std::function<Bytes(NodeId src, const Bytes& args)>;
  using OnewayHandler = std::function<void(Message&&)>;
  using Completion = std::function<void(RpcResult)>;

  RpcNode(Channel& channel, TimerService& timers,
          std::size_t reply_cache_capacity = 1024);
  ~RpcNode();

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  NodeId id() const { return channel_.id(); }

  /// Register the handler for a method id (< kRpcTypeBase).
  void serve(std::uint16_t method, MethodHandler handler);

  /// Asynchronous call.  `on_done` fires exactly once, possibly on a
  /// transport or timer thread (or at once, on a node already shut down).
  void call(NodeId dst, std::uint16_t method, Bytes args, Completion on_done,
            RetryPolicy policy = {});

  /// Raw datagram with an application message type (< kRpcTypeBase).
  void send_oneway(NodeId dst, std::uint16_t type, Bytes payload);

  /// Handler for incoming non-RPC datagrams.
  void set_oneway_handler(OnewayHandler handler);

  RpcStats stats() const;

  /// Seed for deterministic backoff jitter; replays of the same seed produce
  /// the same retransmit schedule.  Default 0 is itself deterministic.
  void set_jitter_seed(std::uint64_t seed);

  /// Paused nodes drop everything — inbound frames, outbound requests,
  /// replies, and oneways — while timers keep running, so a "killed" process
  /// looks to its peers exactly like a crashed one (calls time out) without
  /// tearing down the object.
  void set_paused(bool paused);
  bool paused() const;

  /// Fail every pending call and stop for good: from then on call() fails
  /// at once with no transmit and no timer (a completion that retries on
  /// failure cannot re-arm), and inbound frames are dropped.  An owner whose
  /// completions touch its own members calls this before they are destroyed;
  /// the destructor calls it too.
  void shutdown();

  /// Smoothed RTT state toward `peer` (valid=false until the first sample).
  RttEstimate rtt_estimate(NodeId peer) const;

  /// Observability: record every datagram this node sends/receives
  /// (kRpcSend/kRpcRecv, arg = wire message type).  Nulls detach.
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock) {
    trace_ = (shard != nullptr && clock != nullptr) ? shard : nullptr;
    trace_clock_ = clock;
  }

 private:
  void trace_message(obs::EventType type, std::uint16_t wire_type) noexcept {
    if (trace_ == nullptr || !trace_->enabled()) return;
    obs::TraceEvent e = obs::make_event(
        type, static_cast<std::uint16_t>(channel_.id().value),
        trace_clock_->now_ns());
    e.arg = wire_type;
    trace_->emit(e);
  }

  struct PendingCall {
    NodeId dst;
    std::uint16_t method = 0;
    Bytes args;
    Completion on_done;
    RetryPolicy policy;
    int attempts = 0;
    std::uint64_t current_timeout_ns = 0;
    std::uint64_t sent_ns = 0;  // last transmit time, for RTT sampling
    TimerToken timer;
  };

  struct CachedReply {
    std::uint64_t request_id;
    Bytes reply;
  };

  void on_message(Message&& message);
  void handle_request(Message&& message);
  void handle_reply(Message&& message);
  void transmit(std::uint64_t request_id, const PendingCall& call);
  void on_timeout(std::uint64_t request_id);
  void send_reply(NodeId dst, std::uint64_t request_id, const Bytes& reply);
  /// First timeout for a call to `dst`: adaptive RTO when a sample exists,
  /// the policy's cold-start otherwise, plus deterministic jitter.
  std::uint64_t initial_timeout_locked(NodeId dst, const RetryPolicy& policy,
                                       std::uint64_t request_id) const;
  std::uint64_t jitter_locked(std::uint64_t base_ns, double fraction,
                              std::uint64_t request_id, int attempt) const;

  Channel& channel_;
  TimerService& timers_;
  const std::size_t reply_cache_capacity_;
  obs::TraceShard* trace_ = nullptr;
  const obs::Clock* trace_clock_ = nullptr;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint16_t, MethodHandler> methods_;
  OnewayHandler oneway_handler_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_request_id_;
  // Reply cache per peer, bounded FIFO.
  std::unordered_map<NodeId, std::deque<CachedReply>> reply_cache_;
  std::unordered_map<NodeId, RttEstimate> rtt_;
  std::uint64_t jitter_seed_ = 0;
  bool paused_ = false;
  bool stopped_ = false;  // shutdown() ran
  RpcStats stats_;
};

}  // namespace phish::net
