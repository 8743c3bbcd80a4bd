// Worker-side view of a replicated Clearinghouse.
//
// Workers know the full replica ring up front (it is part of the job
// configuration, like the primary's address always was).  All
// clearinghouse-bound traffic funnels through this class:
//
//   * call()            — RPC to the current primary with bounded failover:
//                         a failed call advances to the next replica and
//                         retries, for at most two full rounds of the ring,
//                         so workers transparently re-resolve a promoted
//                         standby without any name service;
//   * send_oneway_all() — heartbeats go to every replica, so the standby's
//                         liveness map is warm the instant it promotes
//                         (otherwise promotion would be followed by a wave
//                         of false deaths);
//   * adopt()           — apply a kNewPrimary announcement, view-fenced so a
//                         stale announcement from a demoted primary cannot
//                         roll the ring backwards.
//
// Single-threaded, like the WorkerNode that owns it.
#pragma once

#include <vector>

#include "net/rpc.hpp"

namespace phish {

class ClearinghouseClient {
 public:
  ClearinghouseClient(net::RpcNode& rpc, std::vector<net::NodeId> replicas);

  /// The replica currently believed to be primary.
  net::NodeId current() const { return replicas_[index_]; }
  /// The highest coordinator view this client has adopted.
  std::uint64_t view() const { return view_; }
  bool is_replica(net::NodeId n) const;
  const std::vector<net::NodeId>& replicas() const { return replicas_; }

  /// Adopt `primary` as coordinator if `view` is newer than what we hold.
  /// Returns true when the current primary changed.
  bool adopt(net::NodeId primary, std::uint64_t view);

  /// RPC to the current primary; on failure rotate through the ring, giving
  /// up (and firing on_done with the failure) after 2 * ring size attempts.
  void call(std::uint16_t method, Bytes args, net::RpcNode::Completion on_done,
            net::RetryPolicy policy);

  /// Lossy oneway to the current primary (I/O, stats).
  void send_oneway(std::uint16_t type, Bytes payload);
  /// Lossy oneway to every replica (heartbeats).
  void send_oneway_all(std::uint16_t type, const Bytes& payload);

 private:
  void call_attempt(std::uint16_t method, Bytes args,
                    net::RpcNode::Completion on_done, net::RetryPolicy policy,
                    int tries_left);
  /// Rotate past `failed` unless the ring already moved on.
  void advance_past(net::NodeId failed);

  net::RpcNode& rpc_;
  const std::vector<net::NodeId> replicas_;
  std::size_t index_ = 0;
  std::uint64_t view_ = 1;  // the original primary serves view 1
};

}  // namespace phish
