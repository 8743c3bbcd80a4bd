#include "core/ch_client.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace phish {

ClearinghouseClient::ClearinghouseClient(net::RpcNode& rpc,
                                         std::vector<net::NodeId> replicas)
    : rpc_(rpc), replicas_(std::move(replicas)) {
  if (replicas_.empty()) {
    throw std::invalid_argument("ClearinghouseClient: empty replica ring");
  }
}

bool ClearinghouseClient::is_replica(net::NodeId n) const {
  return std::find(replicas_.begin(), replicas_.end(), n) != replicas_.end();
}

bool ClearinghouseClient::adopt(net::NodeId primary, std::uint64_t view) {
  if (view <= view_) return false;  // stale announcement (demoted primary)
  const auto it = std::find(replicas_.begin(), replicas_.end(), primary);
  if (it == replicas_.end()) return false;
  view_ = view;
  const auto next = static_cast<std::size_t>(it - replicas_.begin());
  const bool changed = next != index_;
  index_ = next;
  return changed;
}

void ClearinghouseClient::call(std::uint16_t method, Bytes args,
                               net::RpcNode::Completion on_done,
                               net::RetryPolicy policy) {
  call_attempt(method, std::move(args), std::move(on_done), policy,
               static_cast<int>(replicas_.size()) * 2);
}

void ClearinghouseClient::call_attempt(std::uint16_t method, Bytes args,
                                       net::RpcNode::Completion on_done,
                                       net::RetryPolicy policy,
                                       int tries_left) {
  const net::NodeId dst = current();
  // Copy the args: a retry after failover needs them again.
  rpc_.call(
      dst, method, args,
      [this, method, args, on_done = std::move(on_done), policy, tries_left,
       dst](net::RpcResult result) mutable {
        if (result.ok || tries_left <= 1) {
          if (on_done) on_done(std::move(result));
          return;
        }
        advance_past(dst);
        call_attempt(method, std::move(args), std::move(on_done), policy,
                     tries_left - 1);
      },
      policy);
}

void ClearinghouseClient::advance_past(net::NodeId failed) {
  // Only rotate if the ring still points at the replica that failed us; an
  // adopt() or another call's failover since then has fresher knowledge.
  if (replicas_[index_] == failed) index_ = (index_ + 1) % replicas_.size();
}

void ClearinghouseClient::send_oneway(std::uint16_t type, Bytes payload) {
  rpc_.send_oneway(current(), type, std::move(payload));
}

void ClearinghouseClient::send_oneway_all(std::uint16_t type,
                                          const Bytes& payload) {
  for (net::NodeId r : replicas_) {
    rpc_.send_oneway(r, type, payload);
  }
}

}  // namespace phish
