// Real UDP/IP transport on loopback.
//
// This is the layer the paper's Phish actually ran on: split-phase
// communication over UDP datagrams.  Each node binds its own socket on
// 127.0.0.1 at (base_port + node id) and owns the node's event loop
// (NodeLoop), whose thread reads, parses and dispatches incoming datagrams.
// Datagrams carry a small header with a magic number, src/dst ids, a message
// type, and an FNV-1a checksum so torn or foreign packets are discarded
// instead of crashing a worker.
//
// The reproduction runs all "workstations" on one box (see DESIGN.md §3.3);
// the code does not care — addresses are plain sockaddrs.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/node_loop.hpp"

namespace phish::net {

struct UdpParams {
  /// 0 = ephemeral: every channel binds port 0 and the kernel picks a free
  /// one; the network keeps the id -> port table.  This is the only
  /// collision-free choice when many tests run concurrently (ctest -j).
  /// Nonzero = fixed layout: node id binds base_port + id (useful when an
  /// external process must know the ports up front).
  std::uint16_t base_port = 29070;
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
  /// port cannot be bound.  The node's loop starts immediately; install a
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
  /// Runs on the loop's thread, so once it returns no delivery to the old
  /// receiver is running.
  void set_receiver(Receiver receiver) override;
  const ChannelStats& stats() const override;

  /// The node's event loop: every delivery runs on its thread, and so does
  /// whatever the node does.
  NodeLoop& loop() noexcept { return loop_; }

  /// Maximum payload a single datagram may carry.
  static constexpr std::size_t kMaxPayload = 60 * 1024;

 private:
  friend class UdpNetwork;
  UdpChannel(UdpNetwork& net, NodeId id);
  /// A socket bound to `id`'s port (registered with `net` when ephemeral).
  static int open_socket(UdpNetwork& net, NodeId id);

  /// Loop thread: read and deliver the datagrams waiting on the socket.
  void receive();

  UdpNetwork& net_;
  NodeId id_;
  int fd_;
  Receiver receiver_;            // loop thread only
  std::vector<std::uint8_t> buf_;  // loop thread only
  mutable std::mutex stats_mutex_;
  ChannelStats stats_;
  mutable ChannelStats stats_snapshot_;
  NodeLoop loop_;  // last: its thread uses everything above
};

}  // namespace phish::net
