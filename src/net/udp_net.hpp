// Real UDP/IP transport on loopback.
//
// This is the layer the paper's Phish actually ran on: split-phase
// communication over UDP datagrams.  Each node binds its own socket on
// 127.0.0.1 at (base_port + node id); a receiver thread per node parses and
// dispatches incoming datagrams.  Datagrams carry a small header with a magic
// number, src/dst ids, a message type, and an FNV-1a checksum so torn or
// foreign packets are discarded instead of crashing a worker.
//
// The reproduction runs all "workstations" on one box (see DESIGN.md §3.3);
// the code does not care — addresses are plain sockaddrs.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"

namespace phish::net {

struct UdpParams {
  /// 0 = ephemeral: every channel binds port 0 and the kernel picks a free
  /// one; the network keeps the id -> port table.  This is the only
  /// collision-free choice when many tests run concurrently (ctest -j).
  /// Nonzero = fixed layout: node id binds base_port + id (useful when an
  /// external process must know the ports up front).
  std::uint16_t base_port = 29070;
  /// Receive poll timeout; bounds shutdown latency.
  int recv_timeout_ms = 50;
  /// Artificial outbound loss for testing retransmission over real sockets.
  double drop_probability = 0.0;
  std::uint64_t seed = 0x5eed'0000'0002ULL;
};

class UdpChannel;

/// Owns the node-id -> port mapping and the channels created in this process.
class UdpNetwork {
 public:
  explicit UdpNetwork(UdpParams params = {});
  ~UdpNetwork();

  UdpNetwork(const UdpNetwork&) = delete;
  UdpNetwork& operator=(const UdpNetwork&) = delete;

  /// Create and bind the channel for `id`.  Throws std::runtime_error if the
  /// port cannot be bound.  The receiver thread starts immediately; install a
  /// receiver with set_receiver() before peers start sending, or early
  /// messages are dropped (as real UDP would).
  UdpChannel& channel(NodeId id);

  const UdpParams& params() const noexcept { return params_; }

  /// Port `id` is reachable at.  Fixed layout: base_port + id.  Ephemeral
  /// (base_port == 0): looked up in the bind table; 0 if `id` has no channel
  /// yet (a send there fails like any datagram to a dead host).
  std::uint16_t port_of(NodeId id) const noexcept;

 private:
  friend class UdpChannel;
  void register_port(NodeId id, std::uint16_t port);

  UdpParams params_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<UdpChannel>> channels_;
  mutable std::mutex port_mutex_;
  std::unordered_map<std::uint32_t, std::uint16_t> ports_;
};

class UdpChannel final : public Channel {
 public:
  ~UdpChannel() override;

  NodeId id() const override { return id_; }
  void send(NodeId dst, std::uint16_t type, Bytes payload) override;
  void set_receiver(Receiver receiver) override;
  const ChannelStats& stats() const override;

  /// Maximum payload a single datagram may carry.
  static constexpr std::size_t kMaxPayload = 60 * 1024;

 private:
  friend class UdpNetwork;
  UdpChannel(UdpNetwork& net, NodeId id);

  void receive_loop();

  UdpNetwork& net_;
  NodeId id_;
  int fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread receiver_thread_;

  /// Held across each delivery, so set_receiver can wait one out.
  std::mutex dispatch_mutex_;
  mutable std::mutex mutex_;  // guards receiver_, stats_, rng state
  Receiver receiver_;
  ChannelStats stats_;
  mutable ChannelStats stats_snapshot_;
  std::uint64_t drop_rng_state_;
};

}  // namespace phish::net
