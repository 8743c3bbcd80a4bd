// RPC layer tests run over three transports:
//  * LoopNetwork + manual stepping — deterministic protocol state machine
//    tests including loss and retransmission.
//  * SimNetwork + simulator — timeout behaviour in virtual time.
//  * UdpNetwork + ThreadTimerService — end-to-end over real sockets.
#include "net/rpc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/fault.hpp"
#include "net/loop_net.hpp"
#include "net/sim_net.hpp"
#include "net/udp_net.hpp"

namespace phish::net {
namespace {

// --- Loop-network fixture: manual clock via SimTimerService + Simulator. ---
// We use the simulator purely as a timer wheel; messages flow through the
// loop network, which we drain explicitly.
class RpcLoopTest : public ::testing::Test {
 protected:
  RpcLoopTest()
      : timers_(sim_),
        server_node_(net_.channel(NodeId{1})),
        client_node_(net_.channel(NodeId{0})),
        server_(server_node_, timers_),
        client_(client_node_, timers_) {}

  sim::Simulator sim_;
  SimTimerService timers_;
  LoopNetwork net_;
  LoopChannel& server_node_;
  LoopChannel& client_node_;
  RpcNode server_;
  RpcNode client_;
};

Bytes encode_u64(std::uint64_t v) {
  Writer w;
  w.u64(v);
  return w.take();
}

std::uint64_t decode_u64(const Bytes& b) {
  Reader r(b);
  return r.u64();
}

TEST_F(RpcLoopTest, BasicCallReply) {
  server_.serve(1, [](NodeId, const Bytes& args) {
    return encode_u64(decode_u64(args) + 1);
  });
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, encode_u64(41),
               [&](RpcResult r) { result = std::move(r); });
  net_.drain();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(decode_u64(result->reply), 42u);
}

TEST_F(RpcLoopTest, MultipleOutstandingCalls) {
  server_.serve(1, [](NodeId, const Bytes& args) {
    return encode_u64(decode_u64(args) * 2);
  });
  std::vector<std::uint64_t> replies;
  for (std::uint64_t i = 0; i < 10; ++i) {
    client_.call(NodeId{1}, 1, encode_u64(i), [&](RpcResult r) {
      ASSERT_TRUE(r.ok);
      replies.push_back(decode_u64(r.reply));
    });
  }
  net_.drain();
  ASSERT_EQ(replies.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(replies[i], i * 2);
}

TEST_F(RpcLoopTest, RetransmitAfterRequestLoss) {
  server_.serve(1, [](NodeId, const Bytes&) { return encode_u64(7); });
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); });

  // Lose the first request.
  net_.drop_all_in_flight();
  EXPECT_FALSE(result.has_value());

  // Fire exactly the retransmission timer; this time let it through.
  sim_.run(1);  // fires the first timeout -> retransmit
  net_.drain();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(client_.stats().retransmissions, 1u);
}

TEST_F(RpcLoopTest, RetransmitAfterReplyLossUsesReplyCache) {
  int handler_runs = 0;
  server_.serve(1, [&](NodeId, const Bytes&) {
    ++handler_runs;
    return encode_u64(7);
  });
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); });

  // Deliver the request, then lose the reply.
  ASSERT_TRUE(net_.deliver_one());
  EXPECT_EQ(handler_runs, 1);
  net_.drop_all_in_flight();

  // Retransmit: server must answer from its reply cache, not run the handler
  // again (at-most-once execution).
  sim_.run(1);
  net_.drain();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(handler_runs, 1);
  EXPECT_EQ(server_.stats().duplicate_requests, 1u);
}

TEST_F(RpcLoopTest, FailsAfterRetryBudget) {
  // No handler registered anywhere = every attempt times out.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_ns = 1000;
  std::optional<RpcResult> result;
  client_.call(NodeId{5}, 9, {}, [&](RpcResult r) { result = std::move(r); },
               policy);
  // Drive timers to exhaustion.
  sim_.run();
  EXPECT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(client_.stats().calls_failed, 1u);
  EXPECT_EQ(client_.stats().retransmissions, 2u);  // attempts 2 and 3
}

TEST_F(RpcLoopTest, ExponentialBackoffBetweenRetries) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.timeout_ns = 100;
  policy.backoff = 2.0;
  policy.jitter = 0.0;  // exact-timing assertions below
  policy.adaptive = false;
  bool failed = false;
  client_.call(NodeId{5}, 9, {}, [&](RpcResult r) { failed = !r.ok; }, policy);
  // Attempts at t=0, 100, 300, 700; failure at 1500.
  sim_.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(sim_.now(), 100u + 200u + 400u + 800u);
}

TEST_F(RpcLoopTest, UnknownMethodTimesOut) {
  server_.serve(1, [](NodeId, const Bytes&) { return Bytes{}; });
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.timeout_ns = 50;
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 99, {},  // method 99 not registered
               [&](RpcResult r) { result = std::move(r); }, policy);
  net_.drain();
  sim_.run();
  net_.drain();
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST_F(RpcLoopTest, OnewayMessagesBypassRpc) {
  std::vector<std::uint16_t> types;
  server_.set_oneway_handler([&](Message&& m) { types.push_back(m.type); });
  client_.send_oneway(NodeId{1}, 17, encode_u64(5));
  client_.send_oneway(NodeId{1}, 18, encode_u64(6));
  net_.drain();
  EXPECT_EQ(types, (std::vector<std::uint16_t>{17, 18}));
}

TEST_F(RpcLoopTest, ServerCanCallBackDuringHandler) {
  // Clearinghouse-style pattern: handling a request triggers a call to a
  // third node.  Must not deadlock.
  auto& third_node = net_.channel(NodeId{2});
  RpcNode third(third_node, timers_);
  third.serve(2, [](NodeId, const Bytes&) { return encode_u64(99); });

  std::optional<std::uint64_t> from_third;
  server_.serve(1, [&](NodeId, const Bytes&) {
    server_.call(NodeId{2}, 2, {}, [&](RpcResult r) {
      if (r.ok) from_third = decode_u64(r.reply);
    });
    return encode_u64(1);
  });

  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); });
  net_.drain();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(from_third.has_value());
  EXPECT_EQ(*from_third, 99u);
}

TEST_F(RpcLoopTest, MalformedFramesAreIgnored) {
  server_.serve(1, [](NodeId, const Bytes&) { return Bytes{}; });
  // Send a truncated "request" directly on the channel.
  client_node_.send(NodeId{1}, kRpcRequest, Bytes{1, 2});
  EXPECT_NO_THROW(net_.drain());
  // Bogus reply to a request id nobody sent.
  Writer w;
  w.u64(0xdeadbeef);
  w.blob(nullptr, 0);
  server_node_.send(NodeId{0}, kRpcReply, w.take());
  EXPECT_NO_THROW(net_.drain());
}

TEST_F(RpcLoopTest, DestructionFailsPendingCalls) {
  bool done = false;
  bool ok = true;
  {
    auto& extra_node = net_.channel(NodeId{3});
    RpcNode extra(extra_node, timers_);
    extra.call(NodeId{1}, 1, {}, [&](RpcResult r) {
      done = true;
      ok = r.ok;
    });
  }  // destroyed with the call outstanding
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
}

TEST_F(RpcLoopTest, ShutdownFailsPendingCallsAndRetriesDoNotRearm) {
  // A completion that retries on failure (as ClearinghouseClient does) must
  // not leave a call, a transmit or a timer behind on a stopped node.
  int failures = 0;
  std::function<void(RpcResult)> retry = [&](RpcResult r) {
    EXPECT_FALSE(r.ok);
    if (++failures < 3) client_.call(NodeId{5}, 9, {}, retry);
  };
  client_.call(NodeId{5}, 9, {}, retry);  // nobody at node 5 answers
  const auto sent_before = client_node_.stats().messages_sent;
  client_.shutdown();
  EXPECT_EQ(failures, 3) << "the pending call and both retries failed";
  EXPECT_EQ(client_.stats().calls_started, 1u);
  EXPECT_EQ(client_node_.stats().messages_sent, sent_before);
  EXPECT_EQ(sim_.pending(), 0u) << "no retransmit timer left armed";
}

TEST_F(RpcLoopTest, KarnRuleIgnoresRetransmittedSamples) {
  server_.serve(1, [](NodeId, const Bytes&) { return Bytes{}; });
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); });
  net_.drop_all_in_flight();  // lose attempt 1
  sim_.run(1);                // retransmission timer -> attempt 2
  net_.drain();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  // The reply matched a retransmitted request: the RTT sample is ambiguous
  // (Karn's rule) and must not enter the estimator.
  EXPECT_EQ(client_.stats().rtt_samples, 0u);
  EXPECT_FALSE(client_.rtt_estimate(NodeId{1}).valid);

  result.reset();
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); });
  net_.drain();  // clean first-attempt reply
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(client_.stats().rtt_samples, 1u);
  EXPECT_TRUE(client_.rtt_estimate(NodeId{1}).valid);
}

TEST_F(RpcLoopTest, PausedServerLooksCrashed) {
  int handler_runs = 0;
  server_.serve(1, [&](NodeId, const Bytes&) {
    ++handler_runs;
    return Bytes{};
  });
  server_.set_paused(true);
  RetryPolicy policy;
  policy.timeout_ns = 100;
  policy.max_attempts = 3;
  policy.jitter = 0.0;
  policy.adaptive = false;
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); },
               policy);
  net_.drain();  // attempt 1 reaches the paused node and is dropped
  sim_.run();    // remaining attempts + final failure
  net_.drain();  // retransmits also dropped while paused
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(handler_runs, 0) << "a paused node must not execute handlers";

  // Unpause: the node serves again with no reconstruction.
  server_.set_paused(false);
  result.reset();
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); },
               policy);
  net_.drain();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(handler_runs, 1);
}

TEST_F(RpcLoopTest, PausedClientDropsOutbound) {
  int handler_runs = 0;
  server_.serve(1, [&](NodeId, const Bytes&) {
    ++handler_runs;
    return Bytes{};
  });
  client_.set_paused(true);
  RetryPolicy policy;
  policy.timeout_ns = 100;
  policy.max_attempts = 2;
  policy.jitter = 0.0;
  policy.adaptive = false;
  std::optional<RpcResult> result;
  client_.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); },
               policy);
  client_.send_oneway(NodeId{1}, 17, {});
  net_.drain();
  sim_.run();
  net_.drain();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok) << "paused nodes fail calls by retry exhaustion";
  EXPECT_EQ(handler_runs, 0);
}

// Deterministic backoff jitter: the retransmit schedule is a pure function
// of the jitter seed, so chaos replays reproduce byte-for-byte, while
// different seeds decorrelate workers backing off from one loss burst.
TEST(RpcJitter, ScheduleIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    SimTimerService timers(sim);
    LoopNetwork net;
    RpcNode client(net.channel(NodeId{0}), timers);
    client.set_jitter_seed(seed);
    RetryPolicy policy;
    policy.timeout_ns = 1000;
    policy.max_attempts = 4;
    policy.backoff = 2.0;
    policy.jitter = 0.5;
    policy.adaptive = false;
    bool failed = false;
    client.call(NodeId{5}, 9, {}, [&](RpcResult r) { failed = !r.ok; },
                policy);
    sim.run();
    EXPECT_TRUE(failed);
    return sim.now();
  };
  const auto a1 = run_once(111);
  const auto a2 = run_once(111);
  const auto b = run_once(222);
  EXPECT_EQ(a1, a2) << "same seed, same retransmit schedule";
  EXPECT_NE(a1, b) << "different seed, decorrelated schedule";
  // Jitter only stretches timeouts, never shortens them.
  EXPECT_GE(a1, 1000u + 2000u + 4000u + 8000u);
}

// --- Simulated-network end-to-end (timers and transport share the clock). ---

TEST(RpcSim, CallOverSimNetwork) {
  sim::Simulator s;
  SimNetParams params;
  params.jitter = 0;
  SimNetwork net(s, params);
  SimTimerService timers(s);
  RpcNode server(net.channel(NodeId{1}), timers);
  RpcNode client(net.channel(NodeId{0}), timers);
  server.serve(1, [](NodeId src, const Bytes&) {
    EXPECT_EQ(src, (NodeId{0}));
    return encode_u64(123);
  });
  std::optional<RpcResult> result;
  client.call(NodeId{1}, 1, {}, [&](RpcResult r) { result = std::move(r); });
  s.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(decode_u64(result->reply), 123u);
  // Round trip took at least 2x latency.
  EXPECT_GE(s.now(), 2 * params.latency);
}

TEST(RpcSim, AdaptiveRttTracksNetworkLatency) {
  sim::Simulator s;
  SimNetParams params;
  params.jitter = 0;
  SimNetwork net(s, params);
  SimTimerService timers(s);
  RpcNode server(net.channel(NodeId{1}), timers);
  RpcNode client(net.channel(NodeId{0}), timers);
  server.serve(1, [](NodeId, const Bytes& args) { return args; });
  for (int i = 0; i < 8; ++i) {
    client.call(NodeId{1}, 1, {}, [](RpcResult r) { EXPECT_TRUE(r.ok); });
    s.run();
  }
  const RttEstimate est = client.rtt_estimate(NodeId{1});
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.samples, 8u);
  EXPECT_EQ(client.stats().rtt_samples, 8u);
  // RTT = 2x one-way latency on a jitter-free link; srtt converges there.
  const double rtt = 2.0 * static_cast<double>(params.latency);
  EXPECT_NEAR(est.srtt_ns, rtt, 0.1 * rtt);
}

TEST(RpcSim, SurvivesHeavyLoss) {
  sim::Simulator s;
  SimNetParams params;
  params.jitter = 0;
  params.drop_probability = 0.4;
  params.seed = 99;
  SimNetwork net(s, params);
  SimTimerService timers(s);
  RpcNode server(net.channel(NodeId{1}), timers);
  RpcNode client(net.channel(NodeId{0}), timers);
  server.serve(1, [](NodeId, const Bytes& args) { return args; });

  RetryPolicy policy;
  policy.timeout_ns = 10 * sim::kMillisecond;
  policy.max_attempts = 20;
  int ok_count = 0;
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    client.call(NodeId{1}, 1, encode_u64(static_cast<std::uint64_t>(i)),
                [&](RpcResult r) {
                  if (r.ok) ++ok_count;
                },
                policy);
  }
  s.run();
  // With 40% loss each direction and 20 attempts, all calls should complete.
  EXPECT_EQ(ok_count, kCalls);
  EXPECT_GT(client.stats().retransmissions, 0u);
}

// --- Real-socket end-to-end. ---

TEST(RpcUdp, CallOverRealSockets) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  ThreadTimerService timers;
  RpcNode server(net.channel(NodeId{1}), timers);
  RpcNode client(net.channel(NodeId{0}), timers);
  server.serve(1, [](NodeId, const Bytes& args) {
    return encode_u64(decode_u64(args) + 1000);
  });
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answer{0};
  client.call(NodeId{1}, 1, encode_u64(7), [&](RpcResult r) {
    if (r.ok) answer = decode_u64(r.reply);
    done = true;
  });
  for (int i = 0; i < 400 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(done.load());
  EXPECT_EQ(answer.load(), 1007u);
}

TEST(RpcUdp, RetransmissionOverLossySockets) {
  UdpParams p;
  p.base_port = 0;  // ephemeral: kernel-assigned, collision-free
  UdpNetwork net(p);
  ThreadTimerService timers;
  // Half of every datagram either way is lost before it reaches a socket.
  FaultPlan plan;
  plan.seed = 4242;
  LinkRule lossy;
  lossy.drop = 0.5;
  plan.links.push_back(lossy);
  FaultyChannel server_channel(net.channel(NodeId{1}), plan);
  FaultyChannel client_channel(net.channel(NodeId{0}), plan);
  RpcNode server(server_channel, timers);
  RpcNode client(client_channel, timers);
  server.serve(1, [](NodeId, const Bytes& args) { return args; });

  // Each attempt succeeds with probability 1/4 (request and reply must both
  // get through).  No backoff, so the retry budget fits the wait below: 40
  // attempts take at most 1.2 s and all fail with probability 0.75^40.
  RetryPolicy policy;
  policy.timeout_ns = 30'000'000;  // 30 ms
  policy.backoff = 1.0;
  policy.max_attempts = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> done_count{0};
  constexpr int kCalls = 10;
  for (int i = 0; i < kCalls; ++i) {
    client.call(NodeId{1}, 1, encode_u64(static_cast<std::uint64_t>(i)),
                [&](RpcResult r) {
                  if (r.ok) ++ok_count;
                  ++done_count;
                },
                policy);
  }
  for (int i = 0; i < 1000 && done_count < kCalls; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(done_count.load(), kCalls);
  EXPECT_EQ(ok_count.load(), kCalls);
}

}  // namespace
}  // namespace phish::net
