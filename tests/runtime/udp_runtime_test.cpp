// End-to-end tests of Phish over real UDP sockets on loopback: the actual
// protocol (registration, heartbeats, steal RPCs, argument datagrams,
// reliable result delivery, shutdown broadcast) with real threads.
#include "runtime/udp/udp_runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "apps/apps.hpp"
#include "obs/tracer.hpp"

namespace phish::rt {
namespace {

UdpJobConfig config_for(int workers) {
  UdpJobConfig cfg;
  cfg.workers = workers;
  // Ephemeral ports: the kernel hands every node a free one, so concurrent
  // ctest processes can never collide no matter how many run at once.
  cfg.net.base_port = 0;
  cfg.clearinghouse.detect_failures = false;
  // Below the tier1 ctest TIMEOUT (30 s): a hang ends with the watchdog's
  // per-worker state dump, not a bare ctest Timeout.
  cfg.timeout_seconds = 20.0;
  return cfg;
}

TEST(UdpRuntime, SingleWorkerFib) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  UdpJob job(reg, config_for(1));
  const auto result = job.run(root, {Value(std::int64_t{20})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(20));
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_GT(result.messages_sent, 0u) << "register/result/unregister";
}

TEST(UdpRuntime, TwoWorkersStealOverRealSockets) {
  // The job must run long enough (hundreds of ms) for the second worker to
  // register and steal on a single-core host: fib(37) with coarse leaves.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/27);
  UdpJob job(reg, config_for(2));
  const auto result = job.run(root, {Value(std::int64_t{37})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(37));
  // With two workers the second can only get work by stealing.
  EXPECT_GT(result.aggregate.tasks_stolen_by_me, 0u);
  EXPECT_EQ(result.aggregate.tasks_stolen_by_me,
            result.aggregate.tasks_stolen_from_me);
}

TEST(UdpRuntime, PfoldHistogramExactOverSockets) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/6);
  UdpJob job(reg, config_for(3));
  const auto result = job.run(root, {Value(std::int64_t{12})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(12));
}

TEST(UdpRuntime, RunByName) {
  TaskRegistry reg;
  apps::register_nqueens(reg, /*sequential_rows=*/4);
  UdpJob job(reg, config_for(2));
  EXPECT_EQ(job.run("nqueens.root", {Value(std::int64_t{8})}).value.as_int(),
            92);
}

TEST(UdpRuntime, SurvivesControlMessageLoss) {
  // Injected loss on the worker's channel: registration, membership
  // refreshes and the result retransmit; argument datagrams stay local
  // because there is one worker.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/30);
  UdpJobConfig cfg = config_for(1);
  net::FaultPlan plan;
  plan.seed = 99;
  net::LinkRule lossy;
  lossy.drop = 0.25;
  plan.links.push_back(lossy);
  cfg.fault_plan = plan;
  UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{24})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(24));
}

TEST(UdpRuntime, ThievesExitWhenParallelismShrinks) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/40);
  UdpJobConfig cfg = config_for(3);
  cfg.max_failed_steals = 6;
  UdpJob job(reg, cfg);
  // One big serial task: the other two workers must give up.
  const auto result = job.run(root, {Value(std::int64_t{31})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(31));
}

TEST(UdpRuntime, StatsShapeMatchesPaper) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/6);
  UdpJob job(reg, config_for(2));
  const auto result = job.run(root, {Value(std::int64_t{13})});
  const auto& a = result.aggregate;
  EXPECT_GT(a.tasks_executed, 100u);
  EXPECT_EQ(a.synchronizations,
            a.non_local_synchs + (a.synchronizations - a.non_local_synchs));
  EXPECT_LT(a.non_local_synchs, a.synchronizations)
      << "most synchronizations stay local";
  EXPECT_LT(a.max_tasks_in_use, 500u);
}

TEST(UdpRuntime, TracedEventCountsMatchWorkerStats) {
  // Each node's loop is the only producer of its trace shard (a worker's
  // core and RpcNode alike, and the Clearinghouse's RpcNode on shard 0),
  // so the rings see every event exactly once.  The job (~3,000 tasks,
  // ~50 ms on 4 workers) outlasts a thief's wait for a CPU on a loaded
  // host, so stealing is certain: a thief's first steal leaves ~0.2 ms
  // after its registration.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/24);
  obs::Tracer tracer;
  UdpJobConfig cfg = config_for(4);
  cfg.tracer = &tracer;
  UdpJob job(reg, cfg);
  const auto result = job.run(root, {Value(std::int64_t{38})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(38));
  ASSERT_EQ(tracer.total_dropped(), 0u);
  std::map<obs::EventType, std::uint64_t> counts;
  std::uint64_t clearinghouse_rpc = 0;
  for (const obs::TraceEvent& e : tracer.collect()) {
    ++counts[static_cast<obs::EventType>(e.type)];
    if (e.worker == 0) ++clearinghouse_rpc;
  }
  EXPECT_GT(clearinghouse_rpc, 0u) << "the Clearinghouse's shard is empty";
  const WorkerStats& agg = result.aggregate;
  EXPECT_EQ(counts[obs::EventType::kExecute], agg.tasks_executed);
  EXPECT_EQ(counts[obs::EventType::kStealServed], agg.tasks_stolen_from_me);
  EXPECT_EQ(counts[obs::EventType::kStealSuccess], agg.tasks_stolen_by_me);
  EXPECT_GT(agg.tasks_stolen_by_me, 0u) << "vacuous: nothing was stolen";
}

TEST(UdpRuntime, WatchdogReportsEachWorkersProtocolState) {
  // A job that cannot finish in time must say where it is: one line per
  // worker and one for the Clearinghouse, each asked of the node's loop.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/40);
  UdpJobConfig cfg = config_for(2);
  cfg.timeout_seconds = 0.05;  // fib(38) as one serial task outlasts this
  UdpJob job(reg, cfg);
  try {
    job.run(root, {Value(std::int64_t{38})});
    FAIL() << "the watchdog did not fire";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("n1: "), std::string::npos) << what;
    EXPECT_NE(what.find("n2: "), std::string::npos) << what;
    EXPECT_NE(what.find("steal_ledger="), std::string::npos) << what;
    EXPECT_NE(what.find("clearinghouse n0: primary"), std::string::npos)
        << what;
  }
}

TEST(UdpRuntime, RejectsZeroWorkers) {
  TaskRegistry reg;
  EXPECT_THROW(UdpJob(reg, [] {
                 UdpJobConfig c;
                 c.workers = 0;
                 return c;
               }()),
               std::invalid_argument);
}

TEST(UdpRuntime, SequentialJobsReuseNothing) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  for (int i = 0; i < 2; ++i) {
    UdpJob job(reg, config_for(2));
    EXPECT_EQ(job.run(root, {Value(std::int64_t{18})}).value.as_int(),
              apps::fib_serial(18));
  }
}

TEST(UdpWorkerTeardown, DestroyWhileCallsToHaltedClearinghousePend) {
  // A lone worker has no peers, so its loop keeps asking the Clearinghouse
  // for membership updates.  Once the Clearinghouse halts, those calls (and
  // the final unregister) stay pending under a long retry timeout.
  // Destroying the worker must complete them while its client and fields are
  // still alive; the failure mode is a use-after-free that ASan reports.
  TaskRegistry reg;
  apps::register_fib(reg, /*sequential_cutoff=*/10);
  UdpJobConfig cfg = config_for(1);
  cfg.rpc_policy.timeout_ns = 30'000'000'000;  // outlasts the test
  cfg.rpc_policy.adaptive = false;
  net::UdpNetwork network(cfg.net);
  const net::NodeId ch_node{0};
  UdpClearinghouse clearinghouse(network, ch_node, cfg.clearinghouse,
                                 /*jitter_seed=*/0);
  clearinghouse.run([](Clearinghouse& ch) { ch.start(); });
  auto worker = std::make_unique<UdpWorker>(
      network, reg, net::NodeId{1}, std::vector<net::NodeId>{ch_node}, cfg,
      /*seed=*/1);
  worker->start();
  // A failed steal means registration is done and the loop is running.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (worker->stats_snapshot().failed_steals == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  clearinghouse.run([](Clearinghouse& ch) { ch.halt(); });
  const std::uint64_t before = worker->stats_snapshot().failed_steals;
  while (worker->stats_snapshot().failed_steals < before + 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.reset();  // several update calls are unanswered at this point
}

}  // namespace
}  // namespace phish::rt
