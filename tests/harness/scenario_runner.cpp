#include "harness/scenario_runner.hpp"

#include <exception>
#include <sstream>
#include <string>

#include "apps/apps.hpp"
#include "runtime/simdist/sim_cluster.hpp"
#include "runtime/threads/threads_runtime.hpp"
#include "runtime/udp/udp_runtime.hpp"
#include "testing/scenario.hpp"
#include "util/rng.hpp"

namespace phish::testing {
namespace {

using rt::SimJobConfig;
using rt::ThreadsConfig;
using rt::UdpJobConfig;

struct AppSpec {
  TaskId root;
  std::vector<Value> args;
  int n = 0;  // problem size, for the serial reference
};

/// Register `app` sized for chaos sweeps: small enough that dozens of cases
/// stay cheap, parallel enough that steals / migrations actually happen.
/// `big` sizes up the instance for the composition sweeps: a reclaim must
/// land while workers still hold closures, and the default micro-instances
/// are communication-bound (workers idle most of the run), which would make
/// reclaim-then-crash plans vacuous.
AppSpec register_app(TaskRegistry& reg, const std::string& app,
                     bool big = false) {
  if (app == "fib") {
    const int n = big ? 20 : 17;
    return {apps::register_fib(reg, /*sequential_cutoff=*/8),
            {Value(std::int64_t{n})},
            n};
  }
  if (app == "nqueens") {
    const int n = big ? 8 : 7;
    return {apps::register_nqueens(reg, /*sequential_rows=*/4),
            {Value(std::int64_t{n})},
            n};
  }
  const int n = big ? 13 : 11;
  return {apps::register_pfold(reg, /*sequential_monomers=*/5),
          {Value(std::int64_t{n})},
          n};
}

/// Compare a job's value against the serial ground truth; empty == match.
std::string check_value(const std::string& app, int n, const Value& value) {
  std::ostringstream why;
  if (app == "fib") {
    if (value.as_int() == apps::fib_serial(n)) return {};
    why << "fib(" << n << ") = " << value.as_int() << ", serial says "
        << apps::fib_serial(n);
  } else if (app == "nqueens") {
    if (value.as_int() == apps::nqueens_serial(n)) return {};
    why << "nqueens(" << n << ") = " << value.as_int() << ", serial says "
        << apps::nqueens_serial(n);
  } else {
    if (apps::decode_histogram(value.as_blob()) == apps::pfold_serial(n)) {
      return {};
    }
    why << "pfold(" << n << ") histogram differs from serial";
  }
  return why.str();
}

bool plan_has(const net::FaultPlan& plan, net::NodeFaultKind kind) {
  for (const net::NodeEvent& e : plan.events) {
    if (e.kind == kind) return true;
  }
  return false;
}

bool plan_duplicates(const net::FaultPlan& plan) {
  for (const net::LinkRule& rule : plan.links) {
    if (rule.duplicate > 0) return true;
  }
  return false;
}

/// Ledger invariants that must hold after the run.  `crashed` relaxes the
/// checks a death legitimately perturbs (a crashed worker's counters die with
/// it); `dup_links` allows unknown-closure argument sends, because a
/// duplicated kArgument can land after its closure completed and was freed —
/// the runtime discards it and counts it here.
std::string check_ledger(const WorkerStats& a, bool crashed, bool dup_links) {
  std::ostringstream why;
  if (!crashed) {
    if (a.tasks_redone != 0) {
      why << "tasks_redone = " << a.tasks_redone
          << " without any crash (false death?); ";
    }
    if (a.tasks_stolen_by_me != a.tasks_stolen_from_me) {
      why << "steal ledger unbalanced: stolen_by_me = " << a.tasks_stolen_by_me
          << ", stolen_from_me = " << a.tasks_stolen_from_me << "; ";
    }
  }
  if (a.args_unknown_closure != 0 && !crashed && !dup_links) {
    why << "args_unknown_closure = " << a.args_unknown_closure
        << " without any crash or duplicate band (lost dataflow?); ";
  }
  return why.str();
}

ChaosOutcome run_threads(const ChaosCase& c) {
  ChaosOutcome o;
  o.plan.seed = c.seed;  // no network: the seed perturbs scheduling instead
  Xoshiro256 rng(mix64(c.seed ^ 0x7472'6473ULL));
  ThreadsConfig cfg;
  cfg.workers = 1 + static_cast<int>(rng.below(6));
  cfg.exec_order = rng.chance(0.5) ? ExecOrder::kLifo : ExecOrder::kFifo;
  cfg.steal_order = rng.chance(0.5) ? StealOrder::kFifo : StealOrder::kLifo;
  cfg.phish_overheads = rng.chance(0.25);
  cfg.seed = c.seed;
  TaskRegistry reg;
  const AppSpec spec = register_app(reg, c.app);
  rt::ThreadsRuntime runtime(reg, cfg);
  const auto result = runtime.run(spec.root, spec.args);
  o.aggregate = result.aggregate;
  std::string why = check_value(c.app, spec.n, result.value);
  // No network, no faults: the full conservation laws apply.
  const auto& a = result.aggregate;
  if (a.closures_created !=
      a.tasks_executed + a.tasks_stolen_from_me + a.tasks_migrated_out) {
    why += "; closure conservation violated";
  }
  if (a.tasks_in_use != 0) why += "; closures leaked (tasks_in_use != 0)";
  why += check_ledger(a, /*crashed=*/false, /*dup_links=*/false);
  o.ok = why.empty();
  o.failure = why;
  return o;
}

/// Simdist plans draw from the full category space: link faults, worker
/// crash / reclaim / partition, control-plane failover (primary crash;
/// worker crash-then-rejoin), and the post-migration compositions
/// (reclaim-then-crash; migrate-midflight-crash).
ChaosProfile simdist_profile(const ChaosCase& c) {
  ChaosProfile profile;
  profile.workers = 3 + static_cast<int>(c.seed % 3);
  profile.coordinator_crash = true;
  profile.crash_rejoin = true;
  profile.reclaim_then_crash = true;
  profile.migrate_midflight_crash = true;
  if (c.composition_only) {
    // Pin the draw to categories 6/7 only: every plan in the targeted sweep
    // composes a reclaim with a crash.  The sweep apps finish in a few
    // (virtual) milliseconds, so the default 20-500 ms event window would
    // reclaim an already-idle cluster: land the reclaim while closures are
    // in flight and the paired crash while the successor still holds them.
    profile.coordinator_crash = false;
    profile.crash_rejoin = false;
    profile.failover_only = true;
    // Three workers pins the cast: worker 0 is immune, so a category-6 plan
    // reclaims one of {1, 2} and crashes the other — which is the migration
    // successor whenever the departing worker's coin-flip between worker 0
    // and the other worker picked the latter.
    profile.workers = 3;
    profile.min_event_ns = 4 * sim::kMillisecond;
    profile.event_horizon_ns = 30 * sim::kMillisecond;
    profile.reclaim_crash_gap_ns = 3 * sim::kMillisecond;
    profile.midflight_crash_gap_ns = 2 * sim::kMillisecond;
  } else {
    profile.failover_only = c.failover_only;
  }
  return profile;
}

ChaosOutcome run_simdist(const ChaosCase& c) {
  ChaosOutcome o;
  const ChaosProfile profile = simdist_profile(c);
  o.plan = make_chaos_plan(c.seed, profile);

  SimJobConfig cfg;
  cfg.participants = profile.workers;
  cfg.seed = c.seed;
  // Failure detection on (crash plans need it) with the CrashSweep timings;
  // partition windows are capped well below the heartbeat timeout so a cut
  // never reads as a death.
  cfg.clearinghouse.detect_failures = true;
  cfg.clearinghouse.heartbeat_timeout_ns = 1500 * sim::kMillisecond;
  cfg.clearinghouse.failure_check_period_ns = 300 * sim::kMillisecond;
  cfg.worker.heartbeat_period = 150 * sim::kMillisecond;
  // Budget RPC retries so link-level drops cannot plausibly exhaust a call:
  // at <= 15% drop each way, ten attempts fail with p ~ 3e-6.
  cfg.worker.rpc_policy = {100 * sim::kMillisecond, 10, 1.5};
  // Warm-standby coordinator: plans may crash the primary mid-job.
  cfg.enable_backup = true;
  cfg.clearinghouse.replicate_period_ns = 150 * sim::kMillisecond;
  cfg.clearinghouse.lease_timeout_ns = 600 * sim::kMillisecond;
  cfg.clearinghouse.lease_check_period_ns = 150 * sim::kMillisecond;

  TaskRegistry reg;
  const AppSpec spec = register_app(reg, c.app, c.composition_only);
  rt::SimCluster cluster(reg, cfg);
  cluster.apply_fault_plan(o.plan);
  const auto result = cluster.run(spec.root, spec.args);
  o.aggregate = result.aggregate;
  o.messages_sent = result.messages_sent;
  o.events_fired = result.events_fired;
  std::string why = check_value(c.app, spec.n, result.value);
  why += check_ledger(result.aggregate,
                      plan_has(o.plan, net::NodeFaultKind::kCrash),
                      plan_duplicates(o.plan));
  o.ok = why.empty();
  o.failure = why;
  return o;
}

ChaosOutcome run_udp(const ChaosCase& c) {
  ChaosOutcome o;
  const int workers = 2 + static_cast<int>(c.seed % 2);
  o.plan = make_chaos_plan(c.seed, ChaosProfile::udp(workers));

  UdpJobConfig cfg;
  cfg.workers = workers;
  // Default to ephemeral ports (collision-free under ctest -j); a nonzero
  // base_port pins the layout for external observation.
  cfg.net.base_port = c.base_port;
  cfg.seed = c.seed;
  cfg.fault_plan = o.plan;
  // Real sockets + injected loss both ways per RPC attempt: twelve attempts
  // make an exhausted call astronomically unlikely (~(0.24)^12).
  cfg.rpc_policy = {30'000'000, 12, 1.5};
  cfg.clearinghouse.detect_failures = false;
  // Below the chaos ctest TIMEOUT (45 s), so a hang reports its dump.
  cfg.timeout_seconds = 30.0;

  TaskRegistry reg;
  const AppSpec spec = register_app(reg, c.app);
  rt::UdpJob job(reg, cfg);
  const auto result = job.run(spec.root, spec.args);
  o.aggregate = result.aggregate;
  std::string why = check_value(c.app, spec.n, result.value);
  why += check_ledger(result.aggregate, /*crashed=*/false,
                      plan_duplicates(o.plan));
  o.ok = why.empty();
  o.failure = why;
  return o;
}

}  // namespace

const char* to_string(ChaosRuntime rt) noexcept {
  switch (rt) {
    case ChaosRuntime::kThreads:
      return "threads";
    case ChaosRuntime::kSimdist:
      return "simdist";
    case ChaosRuntime::kUdp:
      return "udp";
  }
  return "?";
}

void PrintTo(const ChaosCase& c, std::ostream* os) {
  *os << to_string(c.runtime) << "/" << c.app << "/seed" << c.seed;
}

ChaosOutcome run_chaos_case(const ChaosCase& c) {
  ChaosOutcome o;
  try {
    switch (c.runtime) {
      case ChaosRuntime::kThreads:
        o = run_threads(c);
        break;
      case ChaosRuntime::kSimdist:
        o = run_simdist(c);
        break;
      case ChaosRuntime::kUdp:
        o = run_udp(c);
        break;
    }
  } catch (const std::exception& e) {
    o.ok = false;
    o.failure = std::string("exception: ") + e.what();
    // Regenerate the plan the failed run used so the replay line is honest.
    switch (c.runtime) {
      case ChaosRuntime::kThreads:
        o.plan.seed = c.seed;
        break;
      case ChaosRuntime::kSimdist:
        o.plan = make_chaos_plan(c.seed, simdist_profile(c));
        break;
      case ChaosRuntime::kUdp:
        o.plan = make_chaos_plan(
            c.seed, ChaosProfile::udp(2 + static_cast<int>(c.seed % 2)));
        break;
    }
  }
  if (!o.ok) {
    std::ostringstream out;
    out << to_string(c.runtime) << "/" << c.app << " seed " << c.seed
        << " FAILED: " << o.failure
        << "\n  replay: PHISH_CHAOS_SEED=" << c.seed
        << " (and PHISH_CHAOS_RUNTIME=" << to_string(c.runtime)
        << " PHISH_CHAOS_APP=" << c.app << ") re-runs exactly this schedule"
        << "\n  plan:   " << o.plan.describe();
    o.failure = out.str();
  }
  return o;
}

std::vector<ChaosCase> chaos_matrix() {
  const char* kApps[] = {"fib", "nqueens", "pfold"};
  std::vector<ChaosCase> cases;
  // 24 simdist (full plans, virtual time) + 18 threads (seeded scheduling
  // perturbation) + 9 udp (link faults over real loopback sockets) = 51.
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      cases.push_back({ChaosRuntime::kSimdist, kApps[a],
                       1000 * static_cast<std::uint64_t>(a + 1) + i, 0});
    }
  }
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      cases.push_back({ChaosRuntime::kThreads, kApps[a],
                       9000 + 10 * static_cast<std::uint64_t>(a) + i, 0});
    }
  }
  std::uint16_t port = 36000;
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      cases.push_back({ChaosRuntime::kUdp, kApps[a],
                       7000 + 10 * static_cast<std::uint64_t>(a) + i, port});
      port = static_cast<std::uint16_t>(port + 64);
    }
  }
  // Targeted failover sweep: every plan either crashes the primary
  // Clearinghouse (warm standby promotes), crash-rejoins a worker, or
  // composes a reclaim with a crash.
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      cases.push_back({ChaosRuntime::kSimdist, kApps[a],
                       5000 + 10 * static_cast<std::uint64_t>(a) + i, 0,
                       /*failover_only=*/true});
    }
  }
  // Targeted composition sweep, >= 50 seeds: every plan is a
  // reclaim-then-crash or migrate-midflight-crash composition — the two
  // failure-matrix rows the migration durability ledger flipped to
  // survivable.  A failing seed prints the standard PHISH_CHAOS_SEED
  // replay line.
  for (int a = 0; a < 3; ++a) {
    for (std::uint64_t i = 0; i < 17; ++i) {
      cases.push_back({ChaosRuntime::kSimdist, kApps[a],
                       6000 + 100 * static_cast<std::uint64_t>(a) + i, 0,
                       /*failover_only=*/false, /*composition_only=*/true});
    }
  }
  return cases;
}

}  // namespace phish::testing
