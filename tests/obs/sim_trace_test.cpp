// End-to-end observability on the simulated-distributed runtime:
//
//   * the trace's steal/migrate/redo/execute events must agree EXACTLY with
//     the WorkerStats counters the job reports (the trace is evidence, not
//     an estimate);
//   * two replays of the same seed must export byte-identical Chrome JSON
//     (simdist is deterministic, collect() orders deterministically, and the
//     JSON writer is format-stable — any diff is a real regression);
//   * the exported file must have the Perfetto trace-event shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "obs/trace_file.hpp"
#include "runtime/simdist/sim_cluster.hpp"

namespace phish::rt {
namespace {

SimJobConfig traced_config(int participants, std::uint64_t seed,
                           obs::Tracer* tracer) {
  SimJobConfig cfg;
  cfg.participants = participants;
  cfg.seed = seed;
  cfg.clearinghouse.detect_failures = false;
  cfg.worker.heartbeat_period = 500 * sim::kMillisecond;
  cfg.tracer = tracer;
  return cfg;
}

std::map<obs::EventType, std::uint64_t> count_by_type(
    const std::vector<obs::TraceEvent>& events) {
  std::map<obs::EventType, std::uint64_t> counts;
  for (const obs::TraceEvent& e : events) {
    ++counts[static_cast<obs::EventType>(e.type)];
  }
  return counts;
}

TEST(SimTrace, EventCountsMatchWorkerStatsExactly) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  obs::Tracer tracer;
  const auto result =
      run_sim_job(reg, root, {Value(std::int64_t{13})},
                  traced_config(4, /*seed=*/17, &tracer));
  ASSERT_EQ(tracer.total_dropped(), 0u)
      << "ring overflow would make the cross-check approximate";
  const auto events = tracer.collect();
  ASSERT_FALSE(events.empty());
  auto counts = count_by_type(events);
  const WorkerStats& agg = result.aggregate;
  EXPECT_EQ(counts[obs::EventType::kExecute], agg.tasks_executed);
  EXPECT_EQ(counts[obs::EventType::kSpawn], agg.tasks_spawned);
  EXPECT_EQ(counts[obs::EventType::kStealSuccess], agg.tasks_stolen_by_me);
  EXPECT_EQ(counts[obs::EventType::kStealServed], agg.tasks_stolen_from_me);
  EXPECT_EQ(counts[obs::EventType::kStealRequest], agg.steal_requests_sent);
  EXPECT_EQ(counts[obs::EventType::kStealFail], agg.failed_steals);
  EXPECT_EQ(counts[obs::EventType::kArgSend], agg.synchronizations);
  // A 4-participant pfold job must actually exercise the steal path for the
  // cross-check to mean anything.
  EXPECT_GT(agg.tasks_stolen_by_me, 0u);
  // The RPC layer traced real traffic on both clearinghouse and workers.
  EXPECT_GT(counts[obs::EventType::kRpcSend], 0u);
  EXPECT_GT(counts[obs::EventType::kRpcRecv], 0u);
}

TEST(SimTrace, ExecuteSpansCarryVirtualDurations) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/8);
  obs::Tracer tracer;
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{16})},
                                  traced_config(2, 5, &tracer));
  (void)result;
  const auto events = tracer.collect();
  std::uint64_t spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (static_cast<obs::EventType>(e.type) != obs::EventType::kExecute) {
      continue;
    }
    ++spans;
    // Virtual-clock domain: every execution takes simulated time, and the
    // span end is the simulated completion instant, not a wall-clock read.
    EXPECT_GT(e.t_end, e.t_start);
  }
  EXPECT_GT(spans, 0u);
}

TEST(SimTrace, ReclaimTraceMatchesMigrationCounters) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  obs::Tracer tracer;
  SimJobConfig cfg = traced_config(4, 23, &tracer);
  SimCluster cluster(reg, cfg);
  cluster.reclaim_at(2, 40 * sim::kMillisecond);
  const auto result = cluster.run(root, {Value(std::int64_t{13})});
  ASSERT_EQ(cluster.worker(2).depart_reason(),
            SimWorker::DepartReason::kOwnerReclaimed);
  ASSERT_EQ(tracer.total_dropped(), 0u);
  const auto events = tracer.collect();
  auto counts = count_by_type(events);
  EXPECT_GE(counts[obs::EventType::kReclaim], 1u);
  // Each departure logs one kMigrateOut whose arg is the drained closure
  // count; the sum must equal the stats counter, and every drained closure
  // is installed somewhere as a kMigrateIn.
  std::uint64_t drained = 0;
  for (const obs::TraceEvent& e : events) {
    if (static_cast<obs::EventType>(e.type) == obs::EventType::kMigrateOut) {
      drained += e.arg;
    }
  }
  EXPECT_EQ(drained, result.aggregate.tasks_migrated_out);
  EXPECT_EQ(counts[obs::EventType::kMigrateIn],
            result.aggregate.tasks_migrated_out);
}

TEST(SimTrace, CrashTraceRecordsRedo) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  obs::Tracer tracer;
  SimJobConfig cfg = traced_config(4, 31, &tracer);
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 2 * sim::kSecond;
  cfg.clearinghouse.failure_check_period_ns = 500 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 200 * sim::kMillisecond;
  cfg.max_sim_time = 600 * sim::kSecond;
  SimCluster cluster(reg, cfg);
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
  ASSERT_EQ(cluster.worker(3).state(), SimWorker::State::kDead);
  ASSERT_EQ(tracer.total_dropped(), 0u);
  auto counts = count_by_type(tracer.collect());
  EXPECT_EQ(counts[obs::EventType::kCrash], 1u);
  EXPECT_EQ(counts[obs::EventType::kRedo], result.aggregate.tasks_redone);
  EXPECT_GE(result.aggregate.tasks_redone, 1u);
}

/// Reclaim worker 2 early (its cargo migrates to a seeded successor and the
/// Clearinghouse keeps the durability-ledger entry), then crash every other
/// non-root worker mid-job: whoever the successor was, the entry orphans and
/// the coordinator redelivers the cargo snapshot — the kMigrationRedo /
/// kMigrateRereg composition.
obs::TraceData traced_migration_redo_replay(std::uint64_t seed,
                                            WorkerStats* agg_out) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  obs::Tracer tracer;
  SimJobConfig cfg = traced_config(4, seed, &tracer);
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 1'500 * sim::kMillisecond;
  cfg.clearinghouse.failure_check_period_ns = 300 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 150 * sim::kMillisecond;
  cfg.worker.charge_unit = 2 * sim::kMillisecond;  // outlast the crashes
  cfg.max_sim_time = 3'600 * sim::kSecond;
  SimCluster cluster(reg, cfg);
  cluster.reclaim_at(2, 40 * sim::kMillisecond);
  cluster.simulator().schedule_at(2 * sim::kSecond, [&cluster] {
    for (int w : {1, 3}) {
      SimWorker& s = cluster.worker(w);
      if (!s.terminated() && s.state() == SimWorker::State::kActive) {
        s.crash();
      }
    }
  });
  const auto result = cluster.run(root, {Value(std::int64_t{13})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(13));
  if (agg_out != nullptr) *agg_out = result.aggregate;
  obs::TraceData data;
  data.runtime = "simdist";
  data.clock = obs::ClockDomain::kVirtual;
  data.seed = seed;
  data.participants = 4;
  data.take_from(tracer);
  return data;
}

TEST(SimTrace, MigrationRedoEventsAreTracedAndReplayByteStable) {
  // Seed 26's steal pattern hands the reclaimed cargo to a worker that the
  // 2 s crash wave kills (a seed whose successor is worker 0 would make the
  // redelivery assertions vacuous).
  WorkerStats agg;
  const obs::TraceData first = traced_migration_redo_replay(26, &agg);
  auto counts = count_by_type(first.events);
  // The handshake left a ledger entry; the holder's crash must have
  // redelivered it (kMigrationRedo at the new holder, kMigrateRereg when the
  // ledgered cargo installed).
  EXPECT_GE(counts[obs::EventType::kMigrateRereg], 1u)
      << "no successor ever re-registered ledgered cargo";
  EXPECT_GE(counts[obs::EventType::kMigrationRedo], 1u)
      << "the coordinator never redelivered the orphaned ledger entry";
  // tasks_migration_redone also counts thief-dead ledger adoptions (traced
  // as kRedo), so the event count bounds the stat from below.
  EXPECT_LE(counts[obs::EventType::kMigrationRedo],
            agg.tasks_migration_redone);
  // Golden-replay property: the same seed re-runs to a byte-identical
  // export, migration-durability events included.
  const obs::TraceData second = traced_migration_redo_replay(26, nullptr);
  EXPECT_EQ(obs::chrome_trace_json(first), obs::chrome_trace_json(second))
      << "simdist replay or exporter nondeterminism";
}

obs::TraceData traced_replay(std::uint64_t seed) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  obs::Tracer tracer;
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{12})},
                                  traced_config(4, seed, &tracer));
  (void)result;
  obs::TraceData data;
  data.runtime = "simdist";
  data.clock = obs::ClockDomain::kVirtual;
  data.seed = seed;
  data.participants = 4;
  data.take_from(tracer);
  return data;
}

TEST(SimTrace, ChromeExportIsByteStableAcrossReplays) {
  // The golden-file property: same seed, two independent clusters, the
  // exported trace.json must match byte for byte.
  const std::string first = obs::chrome_trace_json(traced_replay(99));
  const std::string second = obs::chrome_trace_json(traced_replay(99));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "simdist replay or exporter nondeterminism";
  // And a different seed must actually change the trace (the comparison
  // above is not vacuous).
  EXPECT_NE(first, obs::chrome_trace_json(traced_replay(100)));
  // Perfetto shape.
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"clock_domain\":\"virtual\""), std::string::npos);
}

TEST(SimTrace, TraceFileRoundTripsThroughDisk) {
  const obs::TraceData data = traced_replay(7);
  const std::string path = ::testing::TempDir() + "/phish_sim_trace.phtrace";
  ASSERT_TRUE(obs::write_trace_file(path, data));
  const auto read = obs::read_trace_file(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->events.size(), data.events.size());
  EXPECT_EQ(read->seed, 7u);
  EXPECT_EQ(read->clock, obs::ClockDomain::kVirtual);
  std::remove(path.c_str());
}

TEST(SimTrace, DisabledTracerLeavesJobUntouched) {
  // Runtime kill-switch: attach a tracer but disable it; the job must run
  // identically and the trace must stay empty.
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  obs::Tracer tracer;
  tracer.set_enabled(false);
  const auto result = run_sim_job(reg, root, {Value(std::int64_t{12})},
                                  traced_config(4, 3, &tracer));
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(12));
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.total_dropped(), 0u);
}

}  // namespace
}  // namespace phish::rt
