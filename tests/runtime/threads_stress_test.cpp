// Concurrency stress for the threads runtime: many back-to-back multi-worker
// jobs with mixed workloads, hunting for races in the inbox/steal/quiescence
// machinery.  Single-core hosts interleave aggressively under contention, so
// repetition is an effective race probe here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "core/worker_core.hpp"
#include "runtime/threads/threads_runtime.hpp"

namespace phish::rt {
namespace {

TEST(ThreadsStress, RepeatedJobsManyWorkers) {
  TaskRegistry reg;
  const TaskId fib_root = apps::register_fib(reg, /*sequential_cutoff=*/10);
  const TaskId pfold_root = apps::register_pfold(reg, 5);
  ThreadsConfig cfg;
  cfg.workers = 6;
  ThreadsRuntime rt(reg, cfg);
  const Histogram pfold_expected = apps::pfold_serial(11);
  for (int round = 0; round < 15; ++round) {
    const auto fib = rt.run(fib_root, {Value(std::int64_t{18})});
    ASSERT_EQ(fib.value.as_int(), apps::fib_serial(18)) << round;
    const auto pf = rt.run(pfold_root, {Value(std::int64_t{11})});
    ASSERT_EQ(apps::decode_histogram(pf.value.as_blob()), pfold_expected)
        << round;
    // Clean termination every round.
    ASSERT_EQ(fib.aggregate.tasks_in_use, 0u);
    ASSERT_EQ(pf.aggregate.tasks_in_use, 0u);
  }
}

TEST(ThreadsStress, AlternatingRuntimesShareNothing) {
  // Two independent runtimes over the same registry must not interfere.
  TaskRegistry reg;
  const TaskId root = apps::register_nqueens(reg, 4);
  ThreadsConfig a_cfg, b_cfg;
  a_cfg.workers = 2;
  b_cfg.workers = 5;
  ThreadsRuntime a(reg, a_cfg), b(reg, b_cfg);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.run(root, {Value(std::int64_t{8})}).value.as_int(), 92);
    EXPECT_EQ(b.run(root, {Value(std::int64_t{8})}).value.as_int(), 92);
  }
}

TEST(ThreadsStress, FineGrainManyWorkersNoLostWakeups) {
  // Fully fine-grained fib floods the inboxes with cross-worker argument
  // sends; quiescence must never be declared spuriously and no argument may
  // be dropped.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, 0);
  ThreadsConfig cfg;
  cfg.workers = 8;
  ThreadsRuntime rt(reg, cfg);
  for (int round = 0; round < 5; ++round) {
    const auto r = rt.run(root, {Value(std::int64_t{16})});
    ASSERT_EQ(r.value.as_int(), apps::fib_serial(16)) << round;
    ASSERT_EQ(r.aggregate.args_unknown_closure, 0u);
    ASSERT_EQ(r.aggregate.args_duplicate, 0u);
  }
}

TEST(ThreadsStress, StealHeavyPoolChurnStaysConserved) {
  // Hammer the per-worker closure pools from the steal side: fine-grained
  // fib with many workers makes every core serve batched steals (lazy
  // materialization + pool release on the victim, adopt + pool acquire on
  // the thief) while its own spawn/execute cycle recycles the same arenas.
  // Under TSan this is the concurrent spawn/steal lifetime check; in any
  // build the conservation laws below catch a closure lost or double-freed
  // by the churn.
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/0);
  ThreadsConfig cfg;
  cfg.workers = 6;
  cfg.steal_batch = WorkerCore::kMaxStealBatch;
  ThreadsRuntime rt(reg, cfg);
  std::uint64_t total_stolen = 0;
  for (int round = 0; round < 4; ++round) {
    const auto r = rt.run(root, {Value(std::int64_t{17})});
    ASSERT_EQ(r.value.as_int(), apps::fib_serial(17)) << round;
    // Conservation: every closure created was executed exactly once.  A
    // stolen closure is counted by note_alloc twice (victim spawn + thief
    // install), so the aggregate ledger is executed + stolen == created.
    ASSERT_EQ(r.aggregate.tasks_executed + r.aggregate.tasks_stolen_by_me,
              r.aggregate.closures_created)
        << round;
    ASSERT_EQ(r.aggregate.tasks_in_use, 0u) << round;
    ASSERT_EQ(r.aggregate.args_unknown_closure, 0u) << round;
    ASSERT_EQ(r.aggregate.args_duplicate, 0u) << round;
    total_stolen += r.aggregate.tasks_stolen_from_me;
  }
  // Guard against vacuousness across the whole run, not per round: on a
  // single-CPU host a short round can finish before any thief gets a
  // timeslice, and that is not a scheduler bug.  Under heavy external load
  // (parallel ctest) even four rounds can all starve, so keep running —
  // bounded — until a steal is observed; only a genuinely steal-free
  // scheduler fails here.
  for (int extra = 0; extra < 32 && total_stolen == 0; ++extra) {
    const auto r = rt.run(root, {Value(std::int64_t{17})});
    ASSERT_EQ(r.value.as_int(), apps::fib_serial(17)) << "extra " << extra;
    total_stolen += r.aggregate.tasks_stolen_from_me;
  }
  EXPECT_GT(total_stolen, 0u);
}

// Direct hammer on the no-victim-lock steal protocol: one owner core runs a
// fully fine-grained fib tree on its lock-free Chase–Lev deque while several
// thief threads call steal_concurrent against it with NO victim lock — the
// exact concurrency the threads runtime creates, but with every thief aimed
// at a single victim so the owner's pop races the thieves' CAS steals as
// hard as the host allows.  Under TSan this exercises the push/steal fence
// pairing, the stash hand-back, and the victim-side atomic accounting; in
// any build the conservation ledger below catches a closure lost, duplicated
// or double-freed by the churn.
TEST(ThreadsStress, ConcurrentStealChurnManyThievesOneVictim) {
  constexpr int kThieves = 4;
  constexpr int kRounds = 4;
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/0);

  std::uint64_t total_stolen = 0;
  for (int round = 0; round < kRounds; ++round) {
    CoreOptions options;  // paper orders ...
    options.lockfree_deque = true;  // ... on the Chase–Lev backend

    std::mutex result_mutex;
    std::optional<Value> result;
    std::atomic<bool> stop{false};
    // Set by a thief on its first successful steal of the round.  On a
    // single-CPU host a fast build can otherwise drain the whole fib tree
    // before any thief thread is ever scheduled; the owner sleeps between
    // batches until this flips, guaranteeing the thieves a window while the
    // deque is still populated.
    std::atomic<bool> any_steal{false};

    // Per-node wire queues: arguments crossing cores are queued here and
    // delivered by the receiving core's own thread (cores are externally
    // synchronized; only steal_concurrent may touch a foreign core).
    struct Inbox {
      std::mutex mutex;
      std::deque<std::pair<ContRef, Value>> wires;
    };
    std::vector<Inbox> inboxes(kThieves + 1);

    WorkerCore::Hooks hooks;
    hooks.send_remote = [&](const ContRef& cont, Value value) {
      if (cont.home == kResultNode) {
        {
          std::lock_guard<std::mutex> lock(result_mutex);
          result = std::move(value);
        }
        stop.store(true, std::memory_order_release);
        return;
      }
      Inbox& in = inboxes[cont.home.value];
      std::lock_guard<std::mutex> lock(in.mutex);
      in.wires.emplace_back(cont, std::move(value));
    };

    auto drain_inbox = [&inboxes](WorkerCore& core, std::size_t idx) {
      std::deque<std::pair<ContRef, Value>> taken;
      {
        std::lock_guard<std::mutex> lock(inboxes[idx].mutex);
        taken.swap(inboxes[idx].wires);
      }
      for (auto& [cont, value] : taken) {
        core.deliver_remote(cont.target, cont.slot, std::move(value));
      }
      return !taken.empty();
    };

    WorkerCore owner(net::NodeId{0}, reg, hooks, options);
    std::vector<std::unique_ptr<WorkerCore>> thieves;
    for (int i = 0; i < kThieves; ++i) {
      thieves.push_back(std::make_unique<WorkerCore>(
          net::NodeId{static_cast<std::uint32_t>(i + 1)}, reg, hooks,
          options));
    }

    owner.spawn(root, {Value(std::int64_t{18})}, root_continuation(), 0);

    std::vector<std::thread> threads;
    threads.reserve(kThieves);
    for (int i = 0; i < kThieves; ++i) {
      threads.emplace_back([&, i] {
        WorkerCore& mine = *thieves[static_cast<std::size_t>(i)];
        std::vector<Closure> loot;
        while (true) {
          bool did = false;
          while (auto task = mine.pop_for_execution()) {
            mine.execute(*task);
            did = true;
          }
          did |= drain_inbox(mine, static_cast<std::size_t>(i + 1));
          if (!mine.has_ready()) {
            loot.clear();
            mine.note_steal_request_sent();
            if (owner.steal_concurrent(loot, 8) == 0) {
              mine.note_steal_failed();
            }
            for (Closure& c : loot) {
              mine.install_stolen(std::move(c));
              did = true;
            }
            if (!loot.empty()) any_steal.store(true, std::memory_order_relaxed);
          }
          if (!did) {
            if (stop.load(std::memory_order_acquire)) break;
            std::this_thread::yield();
          }
        }
      });
    }

    // Owner loop: execute in small batches so inbox draining and stash
    // reclamation interleave with the thieves' CAS traffic.
    while (!stop.load(std::memory_order_acquire)) {
      bool did = false;
      int executed = 0;
      while (auto task = owner.pop_for_execution()) {
        owner.execute(*task);
        did = true;
        if (++executed >= 64) break;
      }
      did |= drain_inbox(owner, 0);
      if (owner.has_parked_slots()) owner.reclaim_stolen_slots();
      if (!any_steal.load(std::memory_order_relaxed)) {
        // Hand the CPU to the thieves until the first steal lands.  Bounded:
        // fib(18) is ~130 batches of 64, so even a steal-free round (a real
        // protocol bug, caught below) only adds ~10 ms.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else if (!did) {
        std::this_thread::yield();
      }
    }
    for (std::thread& t : threads) t.join();
    owner.reclaim_stolen_slots();

    {
      std::lock_guard<std::mutex> lock(result_mutex);
      ASSERT_TRUE(result.has_value()) << round;
      ASSERT_EQ(result->as_int(), apps::fib_serial(18)) << round;
    }

    WorkerStats agg = owner.stats();
    for (const auto& thief : thieves) agg.merge(thief->stats());
    // Same ledger as the runtime-level test: a stolen closure is created
    // twice (victim spawn + thief install) and executed once, so
    // executed + stolen == created, and every pool slot came home.
    ASSERT_EQ(agg.tasks_executed + agg.tasks_stolen_by_me,
              agg.closures_created)
        << round;
    ASSERT_EQ(agg.tasks_in_use, 0u) << round;
    ASSERT_EQ(agg.args_unknown_closure, 0u) << round;
    ASSERT_EQ(agg.args_duplicate, 0u) << round;
    ASSERT_EQ(agg.tasks_stolen_by_me, agg.tasks_stolen_from_me) << round;
    total_stolen += agg.tasks_stolen_from_me;
  }
  // Across all rounds something must actually have been stolen (per-round
  // would be flaky on single-CPU hosts where thieves can starve).
  EXPECT_GT(total_stolen, 0u);
}

}  // namespace
}  // namespace phish::rt
