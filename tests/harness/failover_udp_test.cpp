// Control-plane failover on the UDP runtime: real sockets, scripted
// kill-the-primary / kill-and-rejoin chaos in wall-clock time.
//
// These tests measure real-time failure detection (heartbeat and lease
// timeouts against a wall clock), so they run RUN_SERIAL in ctest: a loaded
// machine starves the heartbeat threads and turns timing into noise.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/clearinghouse.hpp"
#include "core/closure.hpp"
#include "core/protocol.hpp"
#include "runtime/udp/udp_runtime.hpp"

namespace phish::testing {
namespace {

rt::UdpJobConfig udp_failover_config(std::uint64_t seed) {
  rt::UdpJobConfig cfg;
  cfg.workers = 3;
  cfg.net.base_port = 0;  // ephemeral: no collisions under ctest -j
  cfg.seed = seed;
  cfg.enable_backup = true;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 2'000'000'000ULL;
  cfg.clearinghouse.failure_check_period_ns = 300'000'000ULL;
  cfg.clearinghouse.replicate_period_ns = 100'000'000ULL;
  cfg.clearinghouse.lease_timeout_ns = 400'000'000ULL;
  cfg.clearinghouse.lease_check_period_ns = 100'000'000ULL;
  cfg.heartbeat_period_ns = 200'000'000ULL;
  // Below the chaos ctest TIMEOUT (45 s): a hang ends with the watchdog's
  // per-worker state dump, not a bare ctest Timeout.
  cfg.timeout_seconds = 30.0;
  return cfg;
}

/// fib(n) without the exponential recursion of apps::fib_serial (the
/// reference for fib(45) must not itself take seconds).
std::int64_t fib_iterative(int n) {
  std::int64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

TEST(UdpFailover, PrimaryKillPromotesBackupAndFinishes) {
  TaskRegistry reg;
  // fib(45)/cutoff 22 runs ~2.3s wall on 3 loopback workers: the 400ms kill
  // lands mid-job and promotion (~0.9s) leaves ample post-failover stealing.
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg = udp_failover_config(0x0ddf'a110);
  cfg.node_events.push_back(
      {400'000'000ULL, net::NodeFaultKind::kCrash, net::kCoordinatorWorker});
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{45})});
  EXPECT_EQ(result.value.as_int(), fib_iterative(45));
  EXPECT_GE(result.recovery.detects, 1u);
  EXPECT_EQ(result.recovery.promotions, 1u);
  EXPECT_GE(result.recovery.mttr_count, 1u);
}

TEST(UdpFailover, ReclaimedWorkerDrainsThroughLedgerAndRejoins) {
  // Owner return over real sockets: worker 1 is evicted mid-job and must
  // drain its closures through the acked migration-ledger handshake
  // (register at the coordinator, RPC handoff, holder confirm) instead of
  // the old fire-and-forget kMigrate; it later rejoins as a fresh
  // incarnation while its stub keeps forwarding stragglers.  The answer
  // must stay exact.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg = udp_failover_config(0x3ec1'a1fe);
  cfg.enable_backup = false;
  cfg.node_events.push_back(
      {400'000'000ULL, net::NodeFaultKind::kReclaim, 1});
  cfg.node_events.push_back(
      {1'400'000'000ULL, net::NodeFaultKind::kRestart, 1});
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{45})});
  EXPECT_EQ(result.value.as_int(), fib_iterative(45));
  EXPECT_GT(result.aggregate.tasks_migrated_out, 0u)
      << "vacuous: the reclaim found worker 1 already empty";
}

TEST(UdpFailover, RejoinedWorkerReinstallsRedeliveredMigration) {
  // Regression: the migration dedupe set belongs to one incarnation.  A
  // worker that installed migration M, crashed, and rejoined must install a
  // Clearinghouse redelivery of M AGAIN — the installs died with the old
  // core.  A stale dedupe hit would ack true without installing, the ledger
  // would record the new incarnation as holder, and the cargo would be
  // silently and permanently lost.  (Common in small clusters: redelivery
  // targets the lowest-id live participant, often the rejoined node
  // itself.)  Here the test driver plays origin and coordinator so the
  // redelivery deterministically lands on the rejoined worker.
  TaskRegistry reg;
  apps::register_fib(reg, /*sequential_cutoff=*/22);

  net::UdpParams net_params;
  net_params.base_port = 0;  // ephemeral: no collisions under ctest -j
  net::UdpNetwork network(net_params);
  net::ThreadTimerService timers;

  const net::NodeId ch_node{0};
  net::RpcNode ch_rpc(network.channel(ch_node), timers);
  ClearinghouseConfig ch_cfg;
  ch_cfg.detect_failures = false;
  Clearinghouse ch(ch_rpc, timers, ch_cfg);
  ch.start();

  rt::UdpJobConfig cfg;
  cfg.workers = 1;
  cfg.rpc_policy = net::RetryPolicy{50'000'000, 3, 1.5};  // bounds each call
  rt::UdpWorker worker(network, timers, reg, net::NodeId{1}, {ch_node}, cfg,
                       /*seed=*/0x5eed'1234ULL);
  worker.start();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (ch.membership().participants.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  net::RpcNode driver(network.channel(net::NodeId{2}), timers);
  const auto call_migrate = [&](const proto::MigrateMsg& m) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false, accepted = false;
    driver.call(
        net::NodeId{1}, proto::kRpcMigrate, m.encode(),
        [&](net::RpcResult r) {
          if (r.ok) {
            Reader rd(r.reply);
            accepted = rd.boolean() && rd.ok();
          }
          std::lock_guard<std::mutex> lock(mu);
          done = true;
          cv.notify_all();
        },
        cfg.rpc_policy);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return accepted;
  };

  // A waiting closure (one empty slot): installable and id-addressable but
  // never executed, so the test stays a pure install-path probe.
  const auto make_waiting_cargo = [] {
    Closure c;
    c.id = ClosureId{net::NodeId{2}, 7};
    c.task = TaskId{0};
    c.args.reset(1);
    c.missing = 1;
    return c;
  };
  const std::uint64_t mid = (2ull << 32) | 1;
  proto::MigrateMsg first;
  first.from = net::NodeId{2};
  first.closures.push_back(make_waiting_cargo());
  first.migration_id = mid;
  first.redelivery = false;
  ASSERT_TRUE(call_migrate(first)) << "live worker must accept the handoff";

  worker.kill();
  worker.rejoin();  // both run on the worker's thread, in order
  ASSERT_EQ(worker.incarnation(), 2u);

  proto::MigrateMsg redelivered;
  redelivered.from = net::NodeId{2};
  redelivered.closures.push_back(make_waiting_cargo());
  redelivered.migration_id = mid;
  redelivered.redelivery = true;
  // The new incarnation refuses cargo until its re-registration completes
  // (a refusal installs nothing); the coordinator would retry, so do we.
  while (!call_migrate(redelivered)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the rejoined worker never accepted the redelivery";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(worker.stats_snapshot().tasks_migration_redone, 1u)
      << "the rejoined incarnation deduped the redelivery against the dead "
         "life's installs: the cargo was acked but never installed";

  worker.request_stop();
  worker.join();
  ch.stop();
}

TEST(UdpFailover, KilledWorkerRejoinsMidJob) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  rt::UdpJobConfig cfg = udp_failover_config(0x1d30);
  cfg.enable_backup = false;
  cfg.node_events.push_back(
      {300'000'000ULL, net::NodeFaultKind::kCrash, 1});
  cfg.node_events.push_back(
      {1'200'000'000ULL, net::NodeFaultKind::kRestart, 1});
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{45})});
  EXPECT_EQ(result.value.as_int(), fib_iterative(45));
  EXPECT_GE(result.recovery.rejoins, 1u);
}

}  // namespace
}  // namespace phish::testing
