// The UDP runtime on several cores, fault-free: every job of a repeated
// 4-worker run must return the exact answer and must have parallelized
// (tasks stolen).  Real sockets and real threads, so this is the case that
// catches a worker protocol that stalls its thieves: a victim that cannot
// answer a steal RPC until its retry budget runs out loses the stolen
// closures and hangs the job.  RUN_SERIAL: it measures the runtime on an
// otherwise idle host.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/apps.hpp"
#include "runtime/udp/udp_runtime.hpp"

namespace phish::rt {
namespace {

std::int64_t fib_iterative(int n) {
  std::int64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

TEST(UdpMulticore, FourWorkersFinishExactAndStealEveryRun) {
  constexpr int kRuns = 10;
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/22);
  for (int run = 0; run < kRuns; ++run) {
    UdpJobConfig cfg;
    cfg.workers = 4;
    cfg.net.base_port = 0;  // ephemeral: no collisions with other tests
    cfg.seed = 0x4c0e'0000ULL + static_cast<std::uint64_t>(run);
    cfg.clearinghouse.detect_failures = false;
    cfg.timeout_seconds = 5.0;  // ~0.5 s per job on 4 cores
    UdpJob job(reg, cfg);
    const auto result = job.run(root, {Value(std::int64_t{43})});
    EXPECT_EQ(result.value.as_int(), fib_iterative(43)) << "run " << run;
    EXPECT_GT(result.aggregate.tasks_stolen_by_me, 0u) << "run " << run;
  }
}

}  // namespace
}  // namespace phish::rt
