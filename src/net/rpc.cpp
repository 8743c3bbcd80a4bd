#include "net/rpc.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace phish::net {

RpcNode::RpcNode(Channel& channel, TimerService& timers,
                 std::size_t reply_cache_capacity)
    : channel_(channel),
      timers_(timers),
      reply_cache_capacity_(reply_cache_capacity),
      next_request_id_(mix64(channel.id().value) | 1) {
  channel_.set_receiver([this](Message&& m) { on_message(std::move(m)); });
}

RpcNode::~RpcNode() {
  channel_.set_receiver({});
  shutdown();
}

void RpcNode::shutdown() {
  std::vector<PendingCall> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    for (auto& [id, call] : pending_) {
      timers_.cancel(call.timer);
      orphans.push_back(std::move(call));
    }
    pending_.clear();
  }
  for (auto& call : orphans) {
    if (call.on_done) call.on_done(RpcResult{false, {}});
  }
}

void RpcNode::serve(std::uint16_t method, MethodHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  methods_[method] = std::move(handler);
}

void RpcNode::call(NodeId dst, std::uint16_t method, Bytes args,
                   Completion on_done, RetryPolicy policy) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopped_) {
    lock.unlock();
    if (on_done) on_done(RpcResult{false, {}});
    return;
  }
  const std::uint64_t request_id = next_request_id_++;
  PendingCall call;
  call.dst = dst;
  call.method = method;
  call.args = std::move(args);
  call.on_done = std::move(on_done);
  call.policy = policy;
  call.attempts = 1;
  call.current_timeout_ns = initial_timeout_locked(dst, policy, request_id);
  auto [it, inserted] = pending_.emplace(request_id, std::move(call));
  ++stats_.calls_started;
  it->second.sent_ns = timers_.now_ns();
  transmit(request_id, it->second);
  it->second.timer = timers_.schedule(
      jitter_locked(it->second.current_timeout_ns, policy.jitter, request_id,
                    /*attempt=*/1),
      [this, request_id] { on_timeout(request_id); });
}

void RpcNode::send_oneway(NodeId dst, std::uint16_t type, Bytes payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (paused_) return;
  }
  trace_message(obs::EventType::kRpcSend, type);
  channel_.send(dst, type, std::move(payload));
}

void RpcNode::set_oneway_handler(OnewayHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  oneway_handler_ = std::move(handler);
}

RpcStats RpcNode::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void RpcNode::set_jitter_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  jitter_seed_ = seed;
}

void RpcNode::set_paused(bool paused) {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = paused;
}

bool RpcNode::paused() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return paused_;
}

RttEstimate RpcNode::rtt_estimate(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rtt_.find(peer);
  return it == rtt_.end() ? RttEstimate{} : it->second;
}

std::uint64_t RpcNode::initial_timeout_locked(NodeId dst,
                                              const RetryPolicy& policy,
                                              std::uint64_t) const {
  if (!policy.adaptive) return policy.timeout_ns;
  auto it = rtt_.find(dst);
  if (it == rtt_.end() || !it->second.valid) return policy.timeout_ns;
  const double rto = it->second.srtt_ns + 4.0 * it->second.rttvar_ns;
  const auto clamped = static_cast<std::uint64_t>(rto);
  if (clamped < policy.min_timeout_ns) return policy.min_timeout_ns;
  if (clamped > policy.timeout_ns) return policy.timeout_ns;
  return clamped;
}

std::uint64_t RpcNode::jitter_locked(std::uint64_t base_ns, double fraction,
                                     std::uint64_t request_id,
                                     int attempt) const {
  if (fraction <= 0.0) return base_ns;
  const std::uint64_t h = mix64(jitter_seed_ ^ mix64(request_id) ^
                                mix64(0x6a17'7e12ULL + attempt));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1p-53;
  return base_ns +
         static_cast<std::uint64_t>(static_cast<double>(base_ns) * fraction * u);
}

void RpcNode::on_message(Message&& message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (paused_ || stopped_) return;  // a "killed" node hears nothing
  }
  trace_message(obs::EventType::kRpcRecv, message.type);
  switch (message.type) {
    case kRpcRequest:
      handle_request(std::move(message));
      break;
    case kRpcReply:
      handle_reply(std::move(message));
      break;
    default: {
      OnewayHandler handler;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        handler = oneway_handler_;
      }
      if (handler) handler(std::move(message));
      break;
    }
  }
}

void RpcNode::handle_request(Message&& message) {
  Reader r(message.payload);
  const std::uint64_t request_id = r.u64();
  const std::uint16_t method = r.u16();
  const Bytes args = r.blob();
  if (!r.done()) {
    PHISH_LOG(kWarn) << "rpc: malformed request from "
                     << to_string(message.src);
    return;
  }

  MethodHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Duplicate? Answer from the reply cache without re-running the handler.
    auto cached = reply_cache_.find(message.src);
    if (cached != reply_cache_.end()) {
      for (const CachedReply& entry : cached->second) {
        if (entry.request_id == request_id) {
          ++stats_.duplicate_requests;
          // channel_.send never calls back into this RpcNode, so sending
          // while holding our mutex is safe.
          send_reply(message.src, request_id, entry.reply);
          return;
        }
      }
    }
    auto it = methods_.find(method);
    if (it == methods_.end()) {
      PHISH_LOG(kDebug) << "rpc: no handler for method " << method << " on "
                        << to_string(channel_.id());
      return;  // caller times out, exactly as with a dead UDP peer
    }
    handler = it->second;
  }

  Bytes reply = handler(message.src, args);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& cache = reply_cache_[message.src];
    cache.push_back(CachedReply{request_id, reply});
    while (cache.size() > reply_cache_capacity_) cache.pop_front();
  }
  send_reply(message.src, request_id, reply);
}

void RpcNode::handle_reply(Message&& message) {
  Reader r(message.payload);
  const std::uint64_t request_id = r.u64();
  Bytes reply = r.blob();
  if (!r.done()) {
    PHISH_LOG(kWarn) << "rpc: malformed reply from " << to_string(message.src);
    return;
  }
  Completion on_done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;  // late duplicate reply
    timers_.cancel(it->second.timer);
    // Karn's rule: a retransmitted call's reply is ambiguous (it may answer
    // any earlier transmit), so only first-attempt replies feed the
    // estimator.
    if (it->second.attempts == 1) {
      const std::uint64_t now = timers_.now_ns();
      if (now >= it->second.sent_ns) {
        const double r = static_cast<double>(now - it->second.sent_ns);
        RttEstimate& est = rtt_[message.src];
        if (!est.valid) {
          est.valid = true;
          est.srtt_ns = r;
          est.rttvar_ns = r / 2.0;
        } else {
          const double err = r - est.srtt_ns;
          est.srtt_ns += err / 8.0;
          est.rttvar_ns += (std::abs(err) - est.rttvar_ns) / 4.0;
        }
        ++est.samples;
        ++stats_.rtt_samples;
      }
    }
    on_done = std::move(it->second.on_done);
    pending_.erase(it);
    ++stats_.calls_succeeded;
  }
  if (on_done) on_done(RpcResult{true, std::move(reply)});
}

void RpcNode::transmit(std::uint64_t request_id, const PendingCall& call) {
  if (paused_) return;  // callers hold mutex_
  Writer w;
  w.u64(request_id);
  w.u16(call.method);
  w.blob(call.args.data(), call.args.size());
  trace_message(obs::EventType::kRpcSend, kRpcRequest);
  channel_.send(call.dst, kRpcRequest, w.take());
}

void RpcNode::on_timeout(std::uint64_t request_id) {
  Completion on_done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;
    PendingCall& call = it->second;
    if (call.attempts >= call.policy.max_attempts) {
      on_done = std::move(call.on_done);
      pending_.erase(it);
      ++stats_.calls_failed;
    } else {
      ++call.attempts;
      ++stats_.retransmissions;
      call.current_timeout_ns = static_cast<std::uint64_t>(
          static_cast<double>(call.current_timeout_ns) * call.policy.backoff);
      call.sent_ns = timers_.now_ns();
      transmit(request_id, call);
      call.timer = timers_.schedule(
          jitter_locked(call.current_timeout_ns, call.policy.jitter,
                        request_id, call.attempts),
          [this, request_id] { on_timeout(request_id); });
    }
  }
  if (on_done) on_done(RpcResult{false, {}});
}

void RpcNode::send_reply(NodeId dst, std::uint64_t request_id,
                         const Bytes& reply) {
  Writer w;
  w.u64(request_id);
  w.blob(reply.data(), reply.size());
  trace_message(obs::EventType::kRpcSend, kRpcReply);
  channel_.send(dst, kRpcReply, w.take());
}

}  // namespace phish::net
