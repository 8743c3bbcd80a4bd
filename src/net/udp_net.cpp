#include "net/udp_net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace phish::net {
namespace {

constexpr std::uint32_t kMagic = 0x50485348u;  // "PHSH"
constexpr std::uint8_t kVersion = 1;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpNetwork::UdpNetwork(UdpParams params) : params_(params) {}

UdpNetwork::~UdpNetwork() {
  // Channels first: their receiver threads read the port table (a reply's
  // send) until each channel's destructor has joined its thread.
  channels_.clear();
}

std::uint16_t UdpNetwork::port_of(NodeId id) const noexcept {
  if (params_.base_port != 0) {
    return static_cast<std::uint16_t>(params_.base_port + id.value);
  }
  std::lock_guard<std::mutex> lock(port_mutex_);
  const auto it = ports_.find(id.value);
  return it == ports_.end() ? 0 : it->second;
}

void UdpNetwork::register_port(NodeId id, std::uint16_t port) {
  std::lock_guard<std::mutex> lock(port_mutex_);
  ports_[id.value] = port;
}

UdpChannel& UdpNetwork::channel(NodeId id) {
  if (!id.valid()) throw std::invalid_argument("UdpNetwork: nil node id");
  std::lock_guard<std::mutex> lock(mutex_);
  if (id.value >= channels_.size()) channels_.resize(id.value + 1);
  auto& slot = channels_[id.value];
  if (!slot) slot.reset(new UdpChannel(*this, id));
  return *slot;
}

UdpChannel::UdpChannel(UdpNetwork& net, NodeId id)
    : net_(net), id_(id), drop_rng_state_(mix64(net.params().seed ^ id.value)) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("udp: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  int reuse = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  // Receive poll timeout: bounds how long shutdown waits on the receiver.
  constexpr int kRecvTimeoutMs = 50;
  timeval tv{};
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  // base_port 0: bind port 0 and let the kernel allocate — the only
  // collision-free option when many test processes share the machine.
  const std::uint16_t want =
      net.params().base_port == 0
          ? 0
          : static_cast<std::uint16_t>(net.params().base_port + id.value);
  const sockaddr_in addr = loopback_addr(want);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("udp: bind(" + std::to_string(want) +
                             ") failed: " + std::string(std::strerror(err)));
  }
  if (want == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("udp: getsockname failed: " +
                               std::string(std::strerror(err)));
    }
    net.register_port(id, ntohs(bound.sin_port));
  }
  receiver_thread_ = std::thread([this] { receive_loop(); });
}

UdpChannel::~UdpChannel() {
  stopping_.store(true, std::memory_order_release);
  if (receiver_thread_.joinable()) receiver_thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void UdpChannel::set_receiver(Receiver receiver) {
  // Wait out a delivery in progress, unless this is that delivery: once this
  // returns, the old receiver no longer runs and its owner may be destroyed.
  std::unique_lock<std::mutex> dispatch(dispatch_mutex_, std::defer_lock);
  if (std::this_thread::get_id() != receiver_thread_.get_id()) dispatch.lock();
  std::lock_guard<std::mutex> lock(mutex_);
  receiver_ = std::move(receiver);
}

const ChannelStats& UdpChannel::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_snapshot_ = stats_;
  return stats_snapshot_;
}

void UdpChannel::send(NodeId dst, std::uint16_t type, Bytes payload) {
  if (payload.size() > kMaxPayload) {
    throw std::length_error("udp: payload exceeds datagram limit (" +
                            std::to_string(payload.size()) + " bytes)");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.messages_sent;
    stats_.bytes_sent += payload.size();
    if (net_.params().drop_probability > 0.0) {
      drop_rng_state_ = mix64(drop_rng_state_);
      const double u =
          static_cast<double>(drop_rng_state_ >> 11) * 0x1.0p-53;
      if (u < net_.params().drop_probability) {
        ++stats_.messages_dropped;
        return;
      }
    }
  }
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u32(id_.value);
  w.u32(dst.value);
  w.u16(type);
  w.u64(fnv1a(payload.data(), payload.size()));
  w.blob(payload.data(), payload.size());
  const Bytes& frame = w.bytes();

  const std::uint16_t dst_port = net_.port_of(dst);
  if (dst_port == 0) {
    // Ephemeral layout and the destination has no channel (yet): nothing to
    // address the datagram to.  Same contract as sending to a dead host.
    PHISH_LOG(kDebug) << "udp: no port known for " << to_string(dst)
                      << "; dropping";
    return;
  }
  const sockaddr_in addr = loopback_addr(dst_port);
  const ssize_t sent =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (sent < 0) {
    // UDP semantics: sends can fail (e.g. no socket bound yet); drop silently
    // but log for diagnosis.  Reliability is the RPC layer's job.
    PHISH_LOG(kDebug) << "udp: sendto " << to_string(dst)
                      << " failed: " << std::strerror(errno);
  }
}

void UdpChannel::receive_loop() {
  std::vector<std::uint8_t> buf(kMaxPayload + 64);
  while (!stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      PHISH_LOG(kWarn) << "udp: recv failed on " << to_string(id_) << ": "
                       << std::strerror(errno);
      continue;
    }
    Reader r(buf.data(), static_cast<std::size_t>(n));
    if (r.u32() != kMagic || r.u8() != kVersion) continue;
    const NodeId src{r.u32()};
    const NodeId dst{r.u32()};
    const std::uint16_t type = r.u16();
    const std::uint64_t checksum = r.u64();
    Bytes payload = r.blob();
    if (!r.done() || dst != id_) continue;
    if (fnv1a(payload.data(), payload.size()) != checksum) {
      PHISH_LOG(kWarn) << "udp: checksum mismatch on " << to_string(id_);
      continue;
    }
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
    Receiver receiver;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.messages_received;
      stats_.bytes_received += payload.size();
      receiver = receiver_;
    }
    if (receiver) receiver(Message{src, dst, type, std::move(payload)});
  }
}

}  // namespace phish::net
