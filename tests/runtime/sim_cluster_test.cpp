// End-to-end tests of the simulated-distributed runtime: correctness of
// results across participant counts, locality statistics, determinism,
// adaptive parallelism (thief termination, owner reclaim with migration),
// and crash recovery.
#include "runtime/simdist/sim_cluster.hpp"

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/protocol.hpp"

namespace phish::rt {
namespace {

SimJobConfig small_config(int participants, std::uint64_t seed = 1) {
  SimJobConfig cfg;
  cfg.participants = participants;
  cfg.seed = seed;
  cfg.clearinghouse.detect_failures = false;  // no crashes in these tests
  cfg.worker.heartbeat_period = 500 * sim::kMillisecond;
  return cfg;
}

TEST(SimCluster, SingleParticipantFib) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/8);
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{18})},
                                  small_config(1));
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(18));
  EXPECT_EQ(result.aggregate.tasks_stolen_by_me, 0u);
  EXPECT_GT(result.makespan_seconds, 0.0);
}

TEST(SimCluster, MultiParticipantFibCorrect) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/8);
  for (int p : {2, 4, 8}) {
    const auto result = run_sim_job(reg, root, {Value(std::int64_t{18})},
                                    small_config(p, 7));
    EXPECT_EQ(result.value.as_int(), apps::fib_serial(18)) << p;
    EXPECT_EQ(result.per_worker.size(), static_cast<std::size_t>(p));
  }
}

TEST(SimCluster, PfoldHistogramExact) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/6);
  const Histogram expected = apps::pfold_serial(12);
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{12})},
                                  small_config(4, 3));
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()), expected);
}

TEST(SimCluster, NQueensAcrossParticipants) {
  TaskRegistry reg;
  const TaskId root = apps::register_nqueens(reg, /*sequential_rows=*/4);
  for (int p : {1, 3, 6}) {
    const auto result = run_sim_job(reg, root, {Value(std::int64_t{8})},
                                    small_config(p, 11));
    EXPECT_EQ(result.value.as_int(), 92) << p;
  }
}

TEST(SimCluster, SpeedupIsRealAndNearLinear) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  const auto r1 = run_sim_job(reg, root, {Value(std::int64_t{13})},
                              small_config(1, 5));
  const auto r4 = run_sim_job(reg, root, {Value(std::int64_t{13})},
                              small_config(4, 5));
  const double t1 = r1.participant_seconds[0];
  double sum4 = 0.0;
  for (double t : r4.participant_seconds) sum4 += t;
  const double s4 = 4.0 * t1 / sum4;
  EXPECT_GT(s4, 3.0) << "4 participants must give near-4x speedup";
  EXPECT_LE(s4, 4.3) << "and not more than ~4x";
}

TEST(SimCluster, LocalityStatsMatchPaperShape) {
  // Table 2's qualitative content: steals, non-local synchs, and messages
  // are orders of magnitude below tasks and synchronizations; the working
  // set stays small.  Heartbeats/updates off, as in the paper's prototype.
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/4);
  SimJobConfig cfg = small_config(8, 13);
  cfg.worker.heartbeat_period = 0;
  cfg.worker.update_period = 0;
  const auto r = run_sim_job(reg, root, {Value(std::int64_t{14})}, cfg);
  const auto& a = r.aggregate;
  EXPECT_GT(a.tasks_executed, 5'000u);
  EXPECT_LT(a.tasks_stolen_by_me * 20, a.tasks_executed);
  EXPECT_LT(a.non_local_synchs * 20, a.synchronizations);
  EXPECT_LT(a.max_tasks_in_use, 400u);
  EXPECT_LT(r.messages_sent * 5, a.tasks_executed);
}

TEST(SimCluster, FifoStealsTakeTasksNearTheBase) {
  // The communication-locality mechanism itself: under FIFO stealing the
  // average spawn-tree depth of stolen tasks sits well below the average
  // depth of executed tasks ("the task at the tail of the ready list is
  // often a task near the base of the tree").
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  const auto r = run_sim_job(reg, root, {Value(std::int64_t{14})},
                             small_config(8, 77));
  ASSERT_GT(r.aggregate.tasks_stolen_by_me, 5u);
  // pfold's tree is shallow (depth ~11), so require stolen tasks to sit a
  // solid level closer to the base than the executed average.
  EXPECT_LT(r.aggregate.avg_stolen_depth(),
            r.aggregate.avg_executed_depth() - 1.0);
}

TEST(SimCluster, DeterministicGivenSeed) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/6);
  auto run_once = [&] {
    TaskRegistry local;
    const TaskId r = apps::register_pfold(local, 6);
    return run_sim_job(local, r, {Value(std::int64_t{11})},
                       small_config(4, 99));
  };
  (void)root;
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.aggregate.tasks_stolen_by_me, b.aggregate.tasks_stolen_by_me);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_fired, b.events_fired);
}

TEST(SimCluster, DifferentSeedsDifferentSchedules) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, 6);
  const auto a = run_sim_job(reg, root, {Value(std::int64_t{11})},
                             small_config(4, 1));
  TaskRegistry reg2;
  const TaskId root2 = apps::register_pfold(reg2, 6);
  const auto b = run_sim_job(reg2, root2, {Value(std::int64_t{11})},
                             small_config(4, 2));
  // Same answer...
  EXPECT_EQ(a.value.as_blob(), b.value.as_blob());
  // ...but (almost surely) a different schedule.
  EXPECT_NE(a.events_fired, b.events_fired);
}

TEST(SimCluster, ThiefTerminationWhenParallelismShrinks) {
  // A nearly serial workload: extra participants fail their steals and must
  // terminate, returning their workstations (adaptive parallelism).
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/30);
  SimJobConfig cfg = small_config(4, 17);
  cfg.worker.max_failed_steals = 5;
  cfg.worker.steal_retry_delay = 5 * sim::kMillisecond;
  SimCluster cluster(reg, cfg);
  const auto result = cluster.run(root, {Value(std::int64_t{30})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(30));
  int departed = 0;
  for (int i = 0; i < 4; ++i) {
    if (cluster.worker(i).depart_reason() ==
        SimWorker::DepartReason::kParallelismShrank) {
      ++departed;
    }
  }
  EXPECT_GE(departed, 2) << "idle thieves must give up and leave";
}

TEST(SimCluster, OwnerReclaimMigratesAndJobCompletes) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  const Histogram expected = apps::pfold_serial(13);
  SimJobConfig cfg = small_config(4, 23);
  SimCluster cluster(reg, cfg);
  // Reclaim worker 2 early, mid-computation.
  cluster.reclaim_at(2, 40 * sim::kMillisecond);
  const auto result = cluster.run(root, {Value(std::int64_t{13})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()), expected);
  EXPECT_EQ(cluster.worker(2).depart_reason(),
            SimWorker::DepartReason::kOwnerReclaimed);
  EXPECT_LT(cluster.worker(2).lifetime(), sim::from_seconds(2.0));
}

TEST(SimCluster, CrashRecoveryRedoesStolenWork) {
  // Worker 3 crashes mid-job.  The steal ledger on its victims must redo the
  // lost tasks; slot fill-flags make any duplicate results harmless; the
  // final histogram must still be exact.
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  const Histogram expected = apps::pfold_serial(13);
  SimJobConfig cfg = small_config(4, 31);
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 2 * sim::kSecond;
  cfg.clearinghouse.failure_check_period_ns = 500 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 200 * sim::kMillisecond;
  cfg.max_sim_time = 600 * sim::kSecond;
  SimCluster cluster(reg, cfg);
  // Crash worker 3 the moment it actually holds closures (everything it owns
  // descends from tasks it stole, so the steal ledgers cover all of it).
  std::function<void()> crash_when_loaded = [&] {
    SimWorker& w = cluster.worker(3);
    if (w.terminated()) return;
    if (w.state() == SimWorker::State::kActive && w.stats().tasks_in_use > 0) {
      w.crash();
      return;
    }
    cluster.simulator().schedule(sim::kMillisecond, crash_when_loaded);
  };
  cluster.simulator().schedule(25 * sim::kMillisecond, crash_when_loaded);
  const auto result = cluster.run(root, {Value(std::int64_t{13})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()), expected);
  ASSERT_EQ(cluster.worker(3).state(), SimWorker::State::kDead)
      << "the crash condition never triggered; workload too small?";
  // The clearinghouse must have declared the death, and the lost work must
  // have been redone from the steal ledgers.
  EXPECT_EQ(cluster.clearinghouse().declared_dead().size(), 1u);
  EXPECT_GE(result.aggregate.tasks_redone, 1u);
}

/// Every frame victim -> thief in [1, last_seq] is lost, except dataflow
/// (kArgument, kMigrate), which the protocol never claimed to survive losing.
SimJobResult run_with_lost_steal_replies(std::uint64_t last_seq) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/8);
  SimJobConfig cfg = small_config(2);
  cfg.max_sim_time = 30 * sim::kSecond;
  net::FaultPlan plan;
  net::LinkRule rule;
  rule.src = net::NodeId{1};
  rule.dst = net::NodeId{2};
  rule.first_seq = 1;
  rule.last_seq = last_seq;
  rule.drop = 1.0;
  plan.links.push_back(rule);
  plan.lossless_types = {proto::kArgument, proto::kMigrate};
  SimCluster cluster(reg, cfg);
  cluster.apply_fault_plan(plan);
  return cluster.run(root, {Value(std::int64_t{22})});
}

TEST(SimCluster, StealWhoseEveryReplyIsLostIsRedoneAtTheVictim) {
  // The victim ledgers what it serves; the thief's call fails after its last
  // retransmission.  The thief is alive, so no death notice will ever redo
  // those closures: the thief cancels the steal instead, and the victim
  // redoes exactly it.  Without the cancel the job never completes.
  const auto result = run_with_lost_steal_replies(20);
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(22));
  EXPECT_GE(result.aggregate.tasks_redone, 1u);
}

TEST(SimCluster, StealThatOutlastsShortReplyLossNeedsNoRedo) {
  const auto result = run_with_lost_steal_replies(8);
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(22));
}

TEST(SimCluster, StealCancelFollowsTheLedgerOfAReclaimedVictim) {
  // Every frame from the victim (worker 0) to the thief (worker 1) is lost,
  // so the thief's steal call fails after its last retransmission.  Before
  // it gives up, the victim is reclaimed: its steal ledger, holding what it
  // served that call, migrates to worker 2.  The thief's cancel reaches the
  // departed victim, which must pass it on for worker 2 to redo the steal.
  // Failure detection is off and the thief is alive, so nothing else ever
  // redoes it: without the forwarded cancel the job never completes.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/8);
  SimJobConfig cfg = small_config(3, 5);
  cfg.max_sim_time = 60 * sim::kSecond;
  net::FaultPlan plan;
  net::LinkRule rule;
  rule.src = net::NodeId{1};
  rule.dst = net::NodeId{2};
  rule.drop = 1.0;
  plan.links.push_back(rule);
  plan.lossless_types = {proto::kArgument, proto::kMigrate};
  plan.events.push_back(
      {500 * sim::kMillisecond, net::NodeFaultKind::kReclaim, 0});
  SimCluster cluster(reg, cfg);
  cluster.apply_fault_plan(plan);
  // Just before the reclaim: the thief's call to the victim is still
  // retransmitting, and the victim holds ledger entries for it.
  cluster.simulator().schedule(500 * sim::kMillisecond - 1, [&] {
    EXPECT_TRUE(cluster.worker(1).steal_in_flight());
    EXPECT_GT(cluster.worker(0).core().steal_ledger_size(), 0u);
  });
  const auto result = cluster.run(root, {Value(std::int64_t{22})});
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(22));
  EXPECT_EQ(cluster.worker(0).depart_reason(),
            SimWorker::DepartReason::kOwnerReclaimed);
  EXPECT_GE(result.per_worker[2].tasks_redone, 1u);
}

TEST(SimCluster, ParticipantLifetimesAreConsistent) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, 6);
  const auto r = run_sim_job(reg, root, {Value(std::int64_t{12})},
                             small_config(4, 41));
  ASSERT_EQ(r.participant_seconds.size(), 4u);
  for (double t : r.participant_seconds) {
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, r.makespan_seconds + 1.0);
  }
  EXPECT_GT(r.average_participant_seconds, 0.0);
}

TEST(SimCluster, IoReachesClearinghouse) {
  TaskRegistry reg;
  bool registered = false;
  // A task that emits output through the worker's I/O channel cannot easily
  // reach SimWorker::emit_io from Context, so exercise emit_io directly.
  const TaskId root = apps::register_fib(reg, 10);
  (void)registered;
  SimJobConfig cfg = small_config(2, 43);
  SimCluster cluster(reg, cfg);
  cluster.simulator().schedule(50 * sim::kMillisecond, [&] {
    cluster.worker(0).emit_io("progress: started");
  });
  const auto result = cluster.run(root, {Value(std::int64_t{12})});
  ASSERT_EQ(result.io_log.size(), 1u);
  EXPECT_EQ(result.io_log[0].text, "progress: started");
}

TEST(SimCluster, RejectsZeroParticipants) {
  TaskRegistry reg;
  EXPECT_THROW(SimCluster(reg, small_config(0)), std::invalid_argument);
}

TEST(SimCluster, RunIsSingleShot) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, 10);
  SimCluster cluster(reg, small_config(1));
  cluster.run(root, {Value(std::int64_t{10})});
  EXPECT_THROW(cluster.run(root, {Value(std::int64_t{10})}),
               std::logic_error);
}

TEST(SimCluster, TimeoutThrows) {
  TaskRegistry reg;
  // A task that never completes (waits on a join nobody fills).
  const TaskId stuck = reg.add("stuck", [](Context& cx, Closure& c) {
    cx.make_join(c.task, 1, c.cont);  // never filled
  });
  SimJobConfig cfg = small_config(1);
  cfg.max_sim_time = 2 * sim::kSecond;
  SimCluster cluster(reg, cfg);
  EXPECT_THROW(cluster.run(stuck, {}), std::runtime_error);
}

TEST(SimCluster, StallDumpNamesEveryWorkerAndTheClearinghouse) {
  // Worker 1 carries the root, and every datagram it sends the
  // Clearinghouse is lost: it never registers, so the job cannot finish.
  // The error must say where each node is.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/8);
  SimJobConfig cfg = small_config(3);
  cfg.max_sim_time = 2 * sim::kSecond;
  SimCluster cluster(reg, cfg);
  net::FaultPlan plan;
  net::LinkRule cut;
  cut.src = net::NodeId{1};
  cut.dst = net::NodeId{0};
  cut.drop = 1.0;
  plan.links.push_back(cut);
  cluster.apply_fault_plan(plan);
  try {
    cluster.run(root, {Value(std::int64_t{18})});
    FAIL() << "the job finished without its root worker";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    for (const char* part :
         {"max_sim_time", "n1: registering", "n2: active", "n3: active",
          "clearinghouse n0: primary view=1 epoch=3 participants=[n2 n3] "
          "ledger=[]"}) {
      EXPECT_NE(what.find(part), std::string::npos) << part << "\n" << what;
    }
  }
}

TEST(SimCluster, SlowNetworkStillCorrect) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, 6);
  SimJobConfig cfg = small_config(3, 51);
  cfg.net.latency = 20 * sim::kMillisecond;
  cfg.net.send_overhead = 2 * sim::kMillisecond;
  cfg.net.recv_overhead = 2 * sim::kMillisecond;
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{11})}, cfg);
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(11));
}

TEST(SimCluster, LossyNetworkStillCorrect) {
  // Steal RPCs retransmit; argument sends ride the same sim network but with
  // drop_probability only applied to... all messages, so dataflow must
  // survive via RPC where used.  Argument messages are one-way; with loss
  // they can vanish, so this test keeps loss moderate and the job small: the
  // RPC layer's retransmission plus redo machinery must still converge when
  // only control traffic is lost.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/30);
  SimJobConfig cfg = small_config(1, 61);
  cfg.net.drop_probability = 0.2;
  cfg.net.seed = 777;
  // Single participant: all dataflow is local; only RPC control traffic
  // (registration) crosses the lossy network.
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{25})}, cfg);
  EXPECT_EQ(result.value.as_int(), apps::fib_serial(25));
}

}  // namespace
}  // namespace phish::rt
