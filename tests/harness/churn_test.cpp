// Sustained-churn survival: make_churn_plan schedules drive the simdist
// runtime through continuous crash -> detect -> redo -> rejoin cycles
// (including correlated whole-rack losses) and the job must still produce
// the fault-free serial answer.  Every assertion carries the replay line —
// PHISH_CHAOS_SEED=<seed> plus the full plan — so a red run is reproducible
// byte-for-byte:
//
//   PHISH_CHAOS_SEED=<seed> ./test_chaos --gtest_filter='Churn*'
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "runtime/simdist/sim_cluster.hpp"
#include "testing/scenario.hpp"
#include "util/rng.hpp"

namespace phish::testing {
namespace {

/// The replay line printed on any churn failure (satellite requirement:
/// a failing chaos/churn assertion names the exact env to re-run it).
std::string replay_line(std::uint64_t seed, const net::FaultPlan& plan) {
  return "replay: PHISH_CHAOS_SEED=" + std::to_string(seed) +
         " ./test_chaos --gtest_filter='Churn*'\n" + plan.describe();
}

rt::SimJobConfig churn_job_config(std::uint64_t seed, int workers) {
  rt::SimJobConfig cfg;
  cfg.participants = workers;
  cfg.seed = seed;
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 1500 * sim::kMillisecond;
  cfg.clearinghouse.failure_check_period_ns = 300 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 150 * sim::kMillisecond;
  cfg.worker.rpc_policy = {100 * sim::kMillisecond, 10, 1.5};
  // Stretch the job across the churn horizon: at the default 2us charge unit
  // a pfold(13) finishes in virtual milliseconds, long before the first
  // scheduled crash fires, and the redo assertion below would be vacuous.
  cfg.worker.charge_unit = 2 * sim::kMillisecond;
  return cfg;
}

ChurnProfile test_profile(int workers) {
  ChurnProfile p;
  p.workers = workers;
  p.horizon_ns = 8 * sim::kSecond;
  p.churn_rate_hz = 2.0;
  p.correlation = 0.4;
  p.rack_size = 2;
  p.mean_downtime_ns = 1 * sim::kSecond;
  p.min_downtime_ns = 200 * sim::kMillisecond;
  p.min_live = 2;
  return p;
}

/// Shared invariant checker: per-worker strictly alternating down / kRestart
/// with every down paired, worker 0 immune, live floor respected.  Primary
/// crashes (worker == net::kCoordinatorWorker) sit outside the per-worker
/// state machine: at most one, unpaired, in the early half of the horizon.
void check_plan_invariants(const ChurnProfile& profile,
                           const net::FaultPlan& plan) {
  std::vector<int> down(static_cast<std::size_t>(profile.workers), 0);
  int live = profile.workers;
  int primary_crashes = 0;
  for (const net::NodeEvent& e : plan.events) {
    if (e.worker == net::kCoordinatorWorker) {
      ASSERT_EQ(e.kind, net::NodeFaultKind::kCrash);
      ASSERT_TRUE(profile.primary_churn);
      ASSERT_GE(e.at_ns, profile.min_event_ns);
      ASSERT_LT(e.at_ns, profile.horizon_ns / 2);
      ++primary_crashes;
      continue;
    }
    ASSERT_NE(e.worker, 0) << "worker 0 (submitter) is immune";
    ASSERT_GE(e.worker, 1);
    ASSERT_LT(e.worker, profile.workers);
    auto& d = down[static_cast<std::size_t>(e.worker)];
    if (e.kind == net::NodeFaultKind::kRestart) {
      ASSERT_EQ(d, 1) << "restart without a preceding down";
      d = 0;
      ++live;
    } else {
      ASSERT_TRUE(e.kind == net::NodeFaultKind::kCrash ||
                  e.kind == net::NodeFaultKind::kReclaim);
      if (profile.reclaim_fraction <= 0.0) {
        ASSERT_EQ(e.kind, net::NodeFaultKind::kCrash)
            << "reclaim_fraction=0 must generate crashes only";
      }
      ASSERT_EQ(d, 0) << "double-down without a rejoin in between";
      d = 1;
      --live;
      ASSERT_GE(live, profile.min_live);
    }
  }
  ASSERT_LE(primary_crashes, 1) << "the primary dies at most once per storm";
  if (profile.primary_churn) EXPECT_EQ(primary_crashes, 1);
  for (int d : down) EXPECT_EQ(d, 0) << "every down is paired kRestart";
}

TEST(ChurnPlan, InvariantsHoldAcrossSeeds) {
  const ChurnProfile profile = test_profile(6);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const net::FaultPlan plan = make_churn_plan(seed, profile);
    SCOPED_TRACE(replay_line(seed, plan));
    // Racks partition [0, workers) in index order.
    ASSERT_EQ(plan.racks.size(), 3u);
    check_plan_invariants(profile, plan);
  }
}

TEST(ChurnPlan, InvariantsHoldWithReclaimsAndPrimaryChurn) {
  // Same state-machine invariants with both new event classes enabled:
  // owner returns mixed into the leave stream, plus the one-shot primary
  // crash.  Reclaims are downs like any other (the departed worker rejoins
  // later via the paired kRestart).
  ChurnProfile profile = test_profile(6);
  profile.reclaim_fraction = 0.5;
  profile.primary_churn = true;
  std::uint64_t reclaims = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const net::FaultPlan plan = make_churn_plan(seed, profile);
    SCOPED_TRACE(replay_line(seed, plan));
    check_plan_invariants(profile, plan);
    for (const net::NodeEvent& e : plan.events) {
      if (e.kind == net::NodeFaultKind::kReclaim) ++reclaims;
    }
  }
  EXPECT_GT(reclaims, 0u)
      << "vacuous: reclaim_fraction=0.5 never drew an owner return";
}

TEST(ChurnPlan, PrimaryChurnDoesNotPerturbWorkerSchedule) {
  // The primary crash draws from an independent rng stream, so a sweep can
  // attribute availability deltas to the primary crash alone: the worker
  // schedule must be bit-identical with the knob on or off.
  ChurnProfile off = test_profile(8);
  ChurnProfile on = off;
  on.primary_churn = true;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const net::FaultPlan a = make_churn_plan(seed, off);
    net::FaultPlan b = make_churn_plan(seed, on);
    std::erase_if(b.events, [](const net::NodeEvent& e) {
      return e.worker == net::kCoordinatorWorker;
    });
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
  }
}

TEST(ChurnPlan, IsAPureFunctionOfTheSeed) {
  const ChurnProfile profile = test_profile(8);
  EXPECT_EQ(make_churn_plan(42, profile).describe(),
            make_churn_plan(42, profile).describe());
  EXPECT_NE(make_churn_plan(42, profile).describe(),
            make_churn_plan(43, profile).describe());
}

TEST(ChurnSimdist, SustainedChurnStaysExact) {
  // Continuous churn, correlated rack losses included, over the whole job:
  // the redo protocol must hold the answer exact no matter how many times
  // capacity collapses and recovers.
  const std::uint64_t seed = seed_from_env("PHISH_CHAOS_SEED", 0xc842'0001);
  const int workers = 6;
  const net::FaultPlan plan = make_churn_plan(seed, test_profile(workers));
  ASSERT_FALSE(plan.events.empty());

  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  rt::SimCluster cluster(reg, churn_job_config(seed, workers));
  cluster.apply_fault_plan(plan);
  const auto result = cluster.run(root, {Value(std::int64_t{13})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(13))
      << replay_line(seed, plan);
  EXPECT_GT(result.aggregate.tasks_redone, 0u)
      << "vacuous: churn never killed a worker holding stolen work\n"
      << replay_line(seed, plan);
}

TEST(ChurnSimdist, ReclaimChurnMigratesAndStaysExact) {
  // Owner returns mixed into the storm: departing workers must drain their
  // closures through the acked migration handshake (to peers that may die
  // moments later) and the answer must stay exact.  Aggregated over seeds so
  // the migration assertion is robust to any single schedule being idle.
  const int workers = 6;
  ChurnProfile profile = test_profile(workers);
  profile.reclaim_fraction = 0.6;
  profile.correlation = 0.2;
  WorkerStats sum;
  for (std::uint64_t seed :
       {0xc842'0010ull, 0xc842'0011ull, 0xc842'0012ull}) {
    const net::FaultPlan plan = make_churn_plan(seed, profile);
    TaskRegistry reg;
    const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
    rt::SimCluster cluster(reg, churn_job_config(seed, workers));
    cluster.apply_fault_plan(plan);
    const auto result = cluster.run(root, {Value(std::int64_t{13})});
    EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
              apps::pfold_serial(13))
        << replay_line(seed, plan);
    sum.merge(result.aggregate);
  }
  EXPECT_GT(sum.tasks_migrated_out, 0u)
      << "vacuous: no reclaim ever drained closures through the handshake";
}

TEST(ChurnSimdist, PrimaryCrashMidStormFailsOverAndStaysExact) {
  // The hardest composition in the churn taxonomy: the active Clearinghouse
  // dies while workers are crashing and rejoining around it.  The warm
  // standby must promote (epoch-fenced), absorb the in-flux membership, and
  // the job must still finish exactly.
  const std::uint64_t seed = seed_from_env("PHISH_CHAOS_SEED", 0xc842'0020);
  const int workers = 6;
  ChurnProfile profile = test_profile(workers);
  profile.primary_churn = true;
  const net::FaultPlan plan = make_churn_plan(seed, profile);

  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
  rt::SimJobConfig cfg = churn_job_config(seed, workers);
  cfg.enable_backup = true;
  rt::SimCluster cluster(reg, cfg);
  cluster.apply_fault_plan(plan);
  const auto result = cluster.run(root, {Value(std::int64_t{13})});
  EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
            apps::pfold_serial(13))
      << replay_line(seed, plan);
  EXPECT_GT(cluster.recovery().snapshot().promotions, 0u)
      << "vacuous: the standby never promoted\n"
      << replay_line(seed, plan);
}

TEST(ChurnSimdist, StaleUnregisterCannotHideARejoinedIncarnation) {
  // churn_sweep's simdist parity cell with reclaim and primary churn (2.0
  // churn/s, reclaim 0.6) at sweep seeds 2002 and 7.  In both, a reclaimed
  // worker's unregister outlived its rejoin and removed the new
  // incarnation from the membership; when that incarnation crashed holding
  // a stolen task, nothing declared it dead and the job hung.  Seed 7 needs
  // the promoted standby to know the incarnations too.
  for (const std::uint64_t sweep_seed : {2002ull, 7ull}) {
    ChurnProfile profile = test_profile(6);
    profile.correlation = 0.2;
    profile.reclaim_fraction = 0.6;
    profile.primary_churn = true;
    // churn_sweep's runtime_cell_seed for this cell.
    const std::uint64_t plan_seed =
        mix64(sweep_seed ^ 0x51d1'57eeULL ^ 2000 ^ 58 ^ 0x9e1aULL);
    const net::FaultPlan plan = make_churn_plan(plan_seed, profile);

    TaskRegistry reg;
    const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/5);
    rt::SimJobConfig cfg = churn_job_config(sweep_seed, 6);
    cfg.enable_backup = true;
    // The job takes ~70 simulated s; a hang fails fast, with its dump.
    cfg.max_sim_time = 120 * sim::kSecond;
    rt::SimCluster cluster(reg, cfg);
    cluster.apply_fault_plan(plan);
    const auto result = cluster.run(root, {Value(std::int64_t{13})});
    EXPECT_EQ(apps::decode_histogram(result.value.as_blob()),
              apps::pfold_serial(13))
        << "sweep seed " << sweep_seed << "\n"
        << replay_line(plan_seed, plan);
  }
}

TEST(ChurnSimdist, ReplayIsBitForBitDeterministic) {
  // The acceptance bar: the same seed replays to the same simulated history.
  const std::uint64_t seed = seed_from_env("PHISH_CHAOS_SEED", 0xc842'0002);
  const int workers = 4;
  ChurnProfile profile = test_profile(workers);
  profile.horizon_ns = 4 * sim::kSecond;
  const net::FaultPlan plan = make_churn_plan(seed, profile);

  TaskRegistry reg;
  const TaskId root = apps::register_nqueens(reg, /*sequential_rows=*/4);
  std::uint64_t fingerprint[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    rt::SimCluster cluster(reg, churn_job_config(seed, workers));
    cluster.apply_fault_plan(plan);
    const auto result = cluster.run(root, {Value(std::int64_t{8})});
    ASSERT_EQ(result.value.as_int(), 92) << replay_line(seed, plan);
    fingerprint[run] = result.messages_sent;
  }
  EXPECT_EQ(fingerprint[0], fingerprint[1]) << replay_line(seed, plan);
}

}  // namespace
}  // namespace phish::testing
