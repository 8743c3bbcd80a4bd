// Adaptive parallelism under the macro scheduler: workstations with
// synthetic owners join jobs when idle and leave when reclaimed, exactly the
// paper's Figure 2 deployment.  Two pfold jobs are submitted to the
// PhishJobQ; each workstation runs a PhishJobManager over a random
// (Poisson-session) owner trace.  Every job's histogram is checked against
// the serial reference (exit status 1 on a mismatch or a missing job).
//
//   build/examples/adaptive_cluster [--workstations=8] [--jobs=2]
//                                   [--polymer=16] [--seed=3]
#include <cstdio>

#include "apps/pfold/pfold.hpp"
#include "runtime/simdist/macro_cluster.hpp"
#include "util/flags.hpp"

using namespace phish;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const int workstations = static_cast<int>(flags.get_int("workstations", 8));
  const int jobs = static_cast<int>(flags.get_int("jobs", 2));
  const std::int64_t polymer = flags.get_int("polymer", 16);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 3));

  TaskRegistry registry;
  apps::register_pfold(registry, /*sequential_monomers=*/6);

  rt::MacroConfig config;
  config.seed = seed;
  config.clearinghouse.detect_failures = false;
  config.manager.logout_poll = 2 * sim::kSecond;
  config.manager.job_poll = sim::kSecond;
  config.manager.owner_poll = 200 * sim::kMillisecond;
  config.worker.heartbeat_period = 0;
  config.worker.update_period = 2 * sim::kSecond;
  config.worker.max_failed_steals = 200;

  rt::MacroCluster cluster(registry, config);
  for (int i = 0; i < workstations; ++i) {
    // Owners come and go: idle gaps ~20 s, sessions ~8 s (compressed time
    // scale so the demo finishes quickly).
    cluster.add_workstation(rt::OwnerTrace::poisson_sessions(
        seed * 100 + static_cast<std::uint64_t>(i), 20 * sim::kSecond,
        8 * sim::kSecond, 3600 * sim::kSecond));
  }
  for (int j = 0; j < jobs; ++j) {
    cluster.submit_job("pfold-" + std::to_string(j), "pfold.root",
                       {Value(polymer)},
                       static_cast<sim::SimTime>(j) * sim::kSecond);
  }

  const auto records = cluster.run();

  std::printf("%d workstations with random owners, %d pfold(%lld) jobs\n\n",
              workstations, jobs, static_cast<long long>(polymer));
  const Histogram expected = apps::pfold_serial(static_cast<int>(polymer));
  bool all_exact = records.size() == static_cast<std::size_t>(jobs);
  for (const auto& r : records) {
    const bool exact =
        apps::decode_histogram(r.result.as_blob()) == expected;
    all_exact = all_exact && exact;
    std::printf("job %-10s submitted %.1fs completed %.2fs turnaround %.2fs "
                "workstation-joins %llu result %s\n",
                r.name.c_str(), sim::to_seconds(r.submitted_at),
                sim::to_seconds(r.completed_at), r.turnaround_seconds(),
                static_cast<unsigned long long>(r.assignments),
                exact ? "exact" : "WRONG");
  }

  std::printf("\nper-workstation macro activity:\n");
  for (int i = 0; i < workstations; ++i) {
    const auto& s = cluster.manager(i).stats();
    std::printf("  ws%-2d workers started %llu, reclaimed by owner %llu, "
                "self-terminated %llu, harvested %.2f s\n",
                i, static_cast<unsigned long long>(s.workers_started),
                static_cast<unsigned long long>(s.workers_reclaimed),
                static_cast<unsigned long long>(s.workers_self_terminated),
                sim::to_seconds(s.harvested_time));
  }
  const auto q = cluster.jobq().stats();
  std::printf("\nPhishJobQ: %llu requests, %llu assignments, %llu empty "
              "replies\n",
              static_cast<unsigned long long>(q.requests),
              static_cast<unsigned long long>(q.assignments),
              static_cast<unsigned long long>(q.empty_replies));
  return all_exact ? 0 : 1;
}
