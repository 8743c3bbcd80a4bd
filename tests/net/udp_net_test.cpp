#include "net/udp_net.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace phish::net {
namespace {

struct Collector {
  std::mutex m;
  std::condition_variable cv;
  std::vector<Message> messages;

  void add(Message&& msg) {
    std::lock_guard<std::mutex> l(m);
    messages.push_back(std::move(msg));
    cv.notify_all();
  }
  bool wait_for(std::size_t n, int timeout_ms = 2000) {
    std::unique_lock<std::mutex> l(m);
    return cv.wait_for(l, std::chrono::milliseconds(timeout_ms),
                       [&] { return messages.size() >= n; });
  }
};

TEST(UdpNet, DeliversDatagram) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  auto& b = net.channel(NodeId{1});

  Collector got;
  b.set_receiver([&](Message&& m) { got.add(std::move(m)); });

  Writer w;
  w.str("hello over real udp");
  a.send(NodeId{1}, 42, w.take());

  ASSERT_TRUE(got.wait_for(1));
  std::lock_guard<std::mutex> l(got.m);
  EXPECT_EQ(got.messages[0].src, (NodeId{0}));
  EXPECT_EQ(got.messages[0].type, 42);
  Reader r(got.messages[0].payload);
  EXPECT_EQ(r.str(), "hello over real udp");
}

TEST(UdpNet, SetReceiverWaitsOutADeliveryInProgress) {
  // An RpcNode detaches its receiver in its destructor; the receiver thread
  // must be out of the old receiver by then, or it runs on freed memory.
  UdpParams p;
  p.base_port = 0;
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  auto& b = net.channel(NodeId{1});
  std::atomic<bool> entered{false}, finished{false};
  b.set_receiver([&](Message&&) {
    entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished = true;
  });
  a.send(NodeId{1}, 1, {});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!entered) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  b.set_receiver({});
  EXPECT_TRUE(finished) << "set_receiver returned mid-delivery";
}

TEST(UdpNet, BidirectionalTraffic) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  auto& b = net.channel(NodeId{1});

  Collector got_a, got_b;
  a.set_receiver([&](Message&& m) { got_a.add(std::move(m)); });
  b.set_receiver([&](Message&& m) { got_b.add(std::move(m)); });

  a.send(NodeId{1}, 1, {});
  b.send(NodeId{0}, 2, {});
  ASSERT_TRUE(got_a.wait_for(1));
  ASSERT_TRUE(got_b.wait_for(1));
}

TEST(UdpNet, ManyMessagesAllArriveOnLoopback) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  auto& b = net.channel(NodeId{1});

  Collector got;
  b.set_receiver([&](Message&& m) { got.add(std::move(m)); });
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    a.send(NodeId{1}, 5, w.take());
    // Loopback rarely drops, but pace slightly to avoid socket buffer overrun.
    if (i % 50 == 49) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Loopback UDP is reliable in practice; expect all of them.
  EXPECT_TRUE(got.wait_for(kCount, 5000));
}

TEST(UdpNet, OversizedPayloadThrows) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  EXPECT_THROW(a.send(NodeId{1}, 1, Bytes(UdpChannel::kMaxPayload + 1)),
               std::length_error);
}

TEST(UdpNet, StatsCountTraffic) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  auto& b = net.channel(NodeId{1});
  Collector got;
  b.set_receiver([&](Message&& m) { got.add(std::move(m)); });
  a.send(NodeId{1}, 1, Bytes(10));
  ASSERT_TRUE(got.wait_for(1));
  EXPECT_EQ(a.stats().messages_sent, 1u);
  EXPECT_EQ(a.stats().bytes_sent, 10u);
  EXPECT_EQ(b.stats().messages_received, 1u);
}

TEST(UdpNet, InjectedDropLosesMessages) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  p.drop_probability = 1.0;
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  auto& b = net.channel(NodeId{1});
  Collector got;
  b.set_receiver([&](Message&& m) { got.add(std::move(m)); });
  for (int i = 0; i < 5; ++i) a.send(NodeId{1}, 1, {});
  EXPECT_FALSE(got.wait_for(1, 200));
  EXPECT_EQ(a.stats().messages_dropped, 5u);
}

TEST(UdpNet, SendToUnboundPortIsSilent) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& a = net.channel(NodeId{0});
  EXPECT_NO_THROW(a.send(NodeId{9}, 1, Bytes(4)));
}

TEST(UdpNet, GarbagePacketsAreIgnored) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  auto& b = net.channel(NodeId{1});
  Collector got;
  b.set_receiver([&](Message&& m) { got.add(std::move(m)); });

  // Throw raw garbage at b's port via a plain socket.
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.port_of(NodeId{1}));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const char garbage[] = "not a phish frame";
  ::sendto(fd, garbage, sizeof garbage, 0,
           reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  ::close(fd);

  EXPECT_FALSE(got.wait_for(1, 200));

  // And a valid message still gets through afterwards.
  auto& a = net.channel(NodeId{0});
  a.send(NodeId{1}, 3, {});
  EXPECT_TRUE(got.wait_for(1));
}

TEST(UdpNet, CleanShutdownWithTrafficInFlight) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  {
    UdpNetwork net(p);
    auto& a = net.channel(NodeId{0});
    auto& b = net.channel(NodeId{1});
    b.set_receiver([](Message&&) {});
    for (int i = 0; i < 20; ++i) a.send(NodeId{1}, 1, {});
  }  // destructor joins receiver threads; must not hang
  SUCCEED();
}

TEST(UdpNet, PortMapping) {
  UdpParams p;
  p.base_port = 40000;
  UdpNetwork net(p);
  EXPECT_EQ(net.port_of(NodeId{0}), 40000);
  EXPECT_EQ(net.port_of(NodeId{7}), 40007);
}

TEST(UdpNet, EphemeralPortMapping) {
  UdpParams p;
  p.base_port = 0;
  UdpNetwork net(p);
  // No channel yet: the id has no port, and a send there is a silent drop.
  EXPECT_EQ(net.port_of(NodeId{3}), 0);
  auto& c = net.channel(NodeId{3});
  (void)c;
  EXPECT_NE(net.port_of(NodeId{3}), 0) << "bind registered a kernel port";
}

}  // namespace
}  // namespace phish::net
