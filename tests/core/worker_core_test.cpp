#include "core/worker_core.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/local_runner.hpp"
#include "core/task_registry.hpp"

namespace phish {
namespace {

/// Fixture with a registry holding fib-like test tasks and a core whose
/// remote sends are captured for inspection.
class WorkerCoreTest : public ::testing::Test {
 protected:
  WorkerCoreTest() {
    sum_id_ = registry_.add("test.sum", [](Context& cx, Closure& c) {
      cx.send(c.cont, c.args[0].as_int() + c.args[1].as_int());
    });
    leaf_id_ = registry_.add("test.leaf", [](Context& cx, Closure& c) {
      cx.send(c.cont, c.args[0].as_int());
    });
    spawner_id_ =
        registry_.add("test.spawner", [this](Context& cx, Closure& c) {
          const ClosureId join = cx.make_join(sum_id_, 2, c.cont);
          cx.spawn(leaf_id_, {Value(std::int64_t{1})}, cx.slot(join, 0));
          cx.spawn(leaf_id_, {Value(std::int64_t{2})}, cx.slot(join, 1));
        });
    charger_id_ = registry_.add("test.charger", [](Context& cx, Closure& c) {
      cx.charge(static_cast<std::uint64_t>(c.args[0].as_int()));
      cx.charge(5);
      cx.send(c.cont, Value());
    });
    core_ = std::make_unique<WorkerCore>(net::NodeId{0}, registry_,
                                         make_hooks());
  }

  WorkerCore::Hooks make_hooks() {
    WorkerCore::Hooks hooks;
    hooks.send_remote = [this](const ContRef& cont, Value value) {
      remote_sends_.emplace_back(cont, std::move(value));
    };
    return hooks;
  }

  /// Run the core's ready queue dry.
  void drain() {
    while (auto c = core_->pop_for_execution()) core_->execute(*c);
  }

  TaskRegistry registry_;
  TaskId sum_id_, leaf_id_, spawner_id_, charger_id_;
  std::unique_ptr<WorkerCore> core_;
  std::vector<std::pair<ContRef, Value>> remote_sends_;
};

ContRef remote_cont(std::uint32_t node = 9) {
  return ContRef{ClosureId{net::NodeId{node}, 1}, 0, net::NodeId{node}};
}

TEST_F(WorkerCoreTest, RequiresSendRemoteHook) {
  EXPECT_THROW(WorkerCore(net::NodeId{0}, registry_, WorkerCore::Hooks{}),
               std::invalid_argument);
}

TEST_F(WorkerCoreTest, SpawnAndExecuteLeaf) {
  core_->spawn(leaf_id_, {Value(std::int64_t{7})}, remote_cont(), 0);
  EXPECT_TRUE(core_->has_ready());
  drain();
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 7);
  EXPECT_EQ(core_->stats().tasks_executed, 1u);
  EXPECT_EQ(core_->stats().tasks_spawned, 1u);
}

TEST_F(WorkerCoreTest, JoinFiresWhenAllSlotsFill) {
  core_->spawn(spawner_id_, {}, remote_cont(), 0);
  drain();
  // spawner + 2 leaves + sum = 4 executions, result 1+2=3 sent remotely.
  EXPECT_EQ(core_->stats().tasks_executed, 4u);
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 3);
}

TEST_F(WorkerCoreTest, LocalSynchronizationsAreCounted) {
  core_->spawn(spawner_id_, {}, remote_cont(), 0);
  drain();
  // Sends: leaf->join x2 (local), sum->remote (non-local) = 3 synchs.
  EXPECT_EQ(core_->stats().synchronizations, 3u);
  EXPECT_EQ(core_->stats().non_local_synchs, 1u);
}

TEST_F(WorkerCoreTest, MaxTasksInUseTracksPeak) {
  core_->spawn(spawner_id_, {}, remote_cont(), 0);
  drain();
  // Peak: after spawner ran (it is freed after execute returns... it is
  // freed only after fn body) — spawner + join + 2 leaves = 4 concurrently.
  EXPECT_EQ(core_->stats().max_tasks_in_use, 4u);
  EXPECT_EQ(core_->stats().tasks_in_use, 0u) << "all freed at the end";
}

TEST_F(WorkerCoreTest, DepthPropagates) {
  TaskRegistry reg;
  std::vector<std::uint32_t> depths;
  TaskId rec = reg.add("rec", [&](Context& cx, Closure& c) {
    depths.push_back(c.depth);
    if (c.args[0].as_int() > 0) {
      cx.spawn(c.task, {Value(c.args[0].as_int() - 1)}, c.cont);
    } else {
      cx.send(c.cont, Value());
    }
  });
  LocalRunner runner(reg);
  runner.run(rec, {Value(std::int64_t{3})});
  EXPECT_EQ(depths, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST_F(WorkerCoreTest, StealTakesTail) {
  // Two tasks spawned; steal must take the OLDER one (FIFO).
  core_->spawn(leaf_id_, {Value(std::int64_t{1})}, remote_cont(), 0);
  core_->spawn(leaf_id_, {Value(std::int64_t{2})}, remote_cont(), 0);
  auto stolen = core_->try_steal_batch(net::NodeId{5}, 1);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].args[0].as_int(), 1) << "oldest task is stolen";
  EXPECT_EQ(core_->stats().tasks_stolen_from_me, 1u);
  EXPECT_EQ(core_->stats().steal_requests_received, 1u);
  EXPECT_EQ(core_->ready_count(), 1u);
}

TEST_F(WorkerCoreTest, FailedStealOnEmptyQueue) {
  auto stolen = core_->try_steal_batch(net::NodeId{5}, 1);
  EXPECT_TRUE(stolen.empty());
  EXPECT_EQ(core_->stats().steal_requests_received, 1u);
  EXPECT_EQ(core_->stats().tasks_stolen_from_me, 0u);
}

TEST_F(WorkerCoreTest, InstallStolenMakesTaskRunnable) {
  WorkerCore thief(net::NodeId{1}, registry_, make_hooks());
  core_->spawn(leaf_id_, {Value(std::int64_t{42})}, remote_cont(), 0);
  auto stolen = core_->try_steal_batch(net::NodeId{1}, 1);
  ASSERT_EQ(stolen.size(), 1u);
  thief.install_stolen(std::move(stolen[0]));
  EXPECT_EQ(thief.stats().tasks_stolen_by_me, 1u);
  while (auto c = thief.pop_for_execution()) thief.execute(*c);
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 42);
}

TEST_F(WorkerCoreTest, DeliverRemoteFillsWaitingClosure) {
  const ClosureId join =
      core_->create_waiting(sum_id_, 2, remote_cont(), 0);
  EXPECT_EQ(core_->deliver_remote(join, 0, Value(std::int64_t{10})),
            WorkerCore::Deliver::kFilled);
  EXPECT_EQ(core_->deliver_remote(join, 1, Value(std::int64_t{20})),
            WorkerCore::Deliver::kBecameReady);
  drain();
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 30);
}

TEST_F(WorkerCoreTest, DeliverRemoteDuplicateIsIdempotent) {
  const ClosureId join = core_->create_waiting(sum_id_, 2, remote_cont(), 0);
  EXPECT_EQ(core_->deliver_remote(join, 0, Value(std::int64_t{10})),
            WorkerCore::Deliver::kFilled);
  EXPECT_EQ(core_->deliver_remote(join, 0, Value(std::int64_t{99})),
            WorkerCore::Deliver::kDuplicate);
  EXPECT_EQ(core_->deliver_remote(join, 1, Value(std::int64_t{20})),
            WorkerCore::Deliver::kBecameReady);
  drain();
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 30) << "duplicate was dropped";
  EXPECT_EQ(core_->stats().args_duplicate, 1u);
}

TEST_F(WorkerCoreTest, DeliverRemoteUnknownClosure) {
  EXPECT_EQ(core_->deliver_remote(ClosureId{net::NodeId{0}, 999}, 0, Value()),
            WorkerCore::Deliver::kUnknown);
  EXPECT_EQ(core_->stats().args_unknown_closure, 1u);
}

TEST_F(WorkerCoreTest, ZeroSlotJoinIsImmediatelyReady) {
  TaskRegistry reg;
  bool ran = false;
  TaskId t = reg.add("t", [&](Context& cx, Closure& c) {
    ran = true;
    cx.send(c.cont, Value());
  });
  WorkerCore core(net::NodeId{0}, reg, make_hooks());
  core.create_waiting(t, 0, remote_cont(), 0);
  while (auto c = core.pop_for_execution()) core.execute(*c);
  EXPECT_TRUE(ran);
}

TEST_F(WorkerCoreTest, ChargeAccumulatesPerExecution) {
  core_->spawn(charger_id_, {Value(std::int64_t{100})}, remote_cont(), 0);
  auto c = core_->pop_for_execution();
  ASSERT_TRUE(c.has_value());
  core_->execute(*c);
  EXPECT_EQ(core_->last_charge(), 105u);
  // Next execution resets the counter.
  core_->spawn(leaf_id_, {Value(std::int64_t{1})}, remote_cont(), 0);
  c = core_->pop_for_execution();
  core_->execute(*c);
  EXPECT_EQ(core_->last_charge(), 0u);
}

TEST_F(WorkerCoreTest, MigrationDrainsReadyAndWaiting) {
  core_->spawn(leaf_id_, {Value(std::int64_t{1})}, remote_cont(), 0);
  core_->create_waiting(sum_id_, 2, remote_cont(), 0);
  auto moved = core_->drain_for_migration();
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(core_->ready_count(), 0u);
  EXPECT_EQ(core_->waiting_count(), 0u);
  EXPECT_EQ(core_->stats().tasks_migrated_out, 2u);
  EXPECT_EQ(core_->stats().tasks_in_use, 0u);
}

TEST_F(WorkerCoreTest, InstallMigratedRestoresState) {
  WorkerCore successor(net::NodeId{1}, registry_, make_hooks());
  core_->spawn(leaf_id_, {Value(std::int64_t{5})}, remote_cont(), 0);
  const ClosureId join = core_->create_waiting(sum_id_, 2, remote_cont(), 0);
  for (auto& c : core_->drain_for_migration()) {
    successor.install_migrated(std::move(c));
  }
  EXPECT_EQ(successor.ready_count(), 1u);
  EXPECT_EQ(successor.waiting_count(), 1u);
  // The migrated waiting closure still accepts argument deliveries.
  EXPECT_EQ(successor.deliver_remote(join, 0, Value(std::int64_t{1})),
            WorkerCore::Deliver::kFilled);
}

TEST_F(WorkerCoreTest, DeathRecoveryReenqueuesStolenTasks) {
  core_->spawn(leaf_id_, {Value(std::int64_t{1})}, remote_cont(), 0);
  auto stolen = core_->try_steal_batch(net::NodeId{7}, 1);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(core_->ready_count(), 0u);

  const std::size_t redone = core_->handle_participant_death(net::NodeId{7});
  EXPECT_EQ(redone, 1u);
  EXPECT_EQ(core_->ready_count(), 1u);
  EXPECT_EQ(core_->stats().tasks_redone, 1u);
  drain();
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 1);
}

TEST_F(WorkerCoreTest, DeathRecoveryIgnoresOtherThieves) {
  core_->spawn(leaf_id_, {Value(std::int64_t{1})}, remote_cont(), 0);
  core_->try_steal_batch(net::NodeId{7}, 1);
  EXPECT_EQ(core_->handle_participant_death(net::NodeId{8}), 0u);
  EXPECT_EQ(core_->ready_count(), 0u);
}

TEST_F(WorkerCoreTest, DeathRecoveryAbortsOrphanedStolenTasks) {
  // We stole a task whose result is claimed by node 9; node 9 dies before we
  // run it: the task must be dropped from our queue.
  WorkerCore victim(net::NodeId{2}, registry_, make_hooks());
  victim.spawn(leaf_id_, {Value(std::int64_t{1})},
               ContRef{ClosureId{net::NodeId{9}, 1}, 0, net::NodeId{9}}, 0);
  auto stolen = victim.try_steal_batch(core_->id(), 1);
  ASSERT_EQ(stolen.size(), 1u);
  core_->install_stolen(std::move(stolen[0]));
  EXPECT_EQ(core_->ready_count(), 1u);

  core_->handle_participant_death(net::NodeId{9});
  EXPECT_EQ(core_->ready_count(), 0u) << "orphaned task aborted";
}

/// A ready leaf closure named by `origin`, whose result goes to a join on
/// node `home`.
Closure ready_leaf(TaskId leaf, std::int64_t arg, std::uint32_t home,
                   std::uint64_t seq, std::uint32_t origin = 2) {
  Closure c;
  c.id = ClosureId{net::NodeId{origin}, seq};
  c.task = leaf;
  c.cont = ContRef{ClosureId{net::NodeId{home}, 1}, 0, net::NodeId{home}};
  c.args = {Value(arg)};
  return c;
}

/// Pop (without executing) everything queued; the leaves' arguments, in
/// execution order.
std::vector<std::int64_t> pop_args(WorkerCore& core) {
  std::vector<std::int64_t> out;
  while (auto c = core.pop_for_execution()) out.push_back(c->args[0].as_int());
  return out;
}

CoreOptions options_with_deque(bool lockfree) {
  CoreOptions opts;
  opts.lockfree_deque = lockfree;
  return opts;
}

TEST_F(WorkerCoreTest, DeathAbortsReStolenCopyAtItsHolderOnly) {
  // V (node 3) -> A (node 4) -> B (node 5): A steals X from V, then B
  // re-steals X from A with a concurrent steal, so X never runs on A.  When
  // V (X's cont.home) dies, B's queued copy is aborted and A loses nothing.
  const net::NodeId v{3};
  WorkerCore a(net::NodeId{4}, registry_, make_hooks(),
               options_with_deque(/*lockfree=*/true));
  WorkerCore b(net::NodeId{5}, registry_, make_hooks());
  a.install_stolen(ready_leaf(leaf_id_, 1, v.value, 10, v.value));
  // A's own child, also homed on V: not stolen, so never aborted.  Spawning
  // it also moves X out of the fused register into the stealable deque.
  a.spawn(leaf_id_, {Value(std::int64_t{2})},
          ContRef{ClosureId{v, 1}, 0, v}, 1);
  std::vector<Closure> taken;
  ASSERT_EQ(a.steal_concurrent(taken, 8), 1u);
  a.reclaim_stolen_slots();
  ASSERT_EQ(taken[0].args[0].as_int(), 1);
  b.install_stolen(std::move(taken[0]));
  b.spawn(leaf_id_, {Value(std::int64_t{3})},
          ContRef{ClosureId{v, 1}, 0, v}, 1);

  EXPECT_EQ(a.handle_participant_death(v), 0u);
  EXPECT_EQ(b.handle_participant_death(v), 0u);
  EXPECT_EQ(b.stats().tasks_in_use, 1u) << "the aborted copy is freed";
  EXPECT_EQ(pop_args(a), (std::vector<std::int64_t>{2}));
  EXPECT_EQ(pop_args(b), (std::vector<std::int64_t>{3}))
      << "B's stolen copy of X is aborted, its own child kept";
}

TEST_F(WorkerCoreTest, DeathSparesMigratedInClosure) {
  // A closure that was stolen on its previous holder and then migrated here
  // is not "installed by a steal" on this worker: a death of its cont.home
  // leaves it queued.
  WorkerCore previous(net::NodeId{4}, registry_, make_hooks());
  previous.install_stolen(ready_leaf(leaf_id_, 7, /*home=*/9, 10));
  std::vector<Closure> cargo = previous.drain_for_migration();
  ASSERT_EQ(cargo.size(), 1u);
  core_->install_migrated(std::move(cargo[0]));

  core_->handle_participant_death(net::NodeId{9});
  EXPECT_EQ(pop_args(*core_), (std::vector<std::int64_t>{7}));
}

TEST_F(WorkerCoreTest, DeathAbortKeepsSurvivorOrderOnBothDeques) {
  for (const bool lockfree : {false, true}) {
    SCOPED_TRACE(lockfree ? "Chase-Lev deque" : "guarded ring");
    WorkerCore core(net::NodeId{0}, registry_, make_hooks(),
                    options_with_deque(lockfree));
    const ContRef home9{ClosureId{net::NodeId{9}, 1}, 0, net::NodeId{9}};
    const ContRef home8{ClosureId{net::NodeId{8}, 1}, 0, net::NodeId{8}};
    core.install_stolen(ready_leaf(leaf_id_, 1, 9, 10));
    core.spawn(leaf_id_, {Value(std::int64_t{2})}, home9, 1);
    core.install_stolen(ready_leaf(leaf_id_, 3, 8, 11));
    core.install_stolen(ready_leaf(leaf_id_, 4, 9, 12));
    core.spawn(leaf_id_, {Value(std::int64_t{5})}, home8, 1);
    core.install_stolen(ready_leaf(leaf_id_, 6, 9, 13));

    EXPECT_EQ(core.handle_participant_death(net::NodeId{9}), 0u);
    EXPECT_EQ(core.ready_count(), 3u);
    EXPECT_EQ(pop_args(core), (std::vector<std::int64_t>{5, 3, 2}))
        << "stolen tasks homed on 9 aborted, the rest in LIFO order";
  }
}

TEST_F(WorkerCoreTest, RejoinLeavesNoStolenFlagBehind) {
  core_->install_stolen(ready_leaf(leaf_id_, 1, /*home=*/9, 10));
  core_->reset_for_rejoin();
  EXPECT_EQ(core_->ready_count(), 0u);
  // The new life's first spawn reuses the released pool slot; it is a local
  // child, not a steal, so the death of its cont.home must not abort it.
  core_->spawn(leaf_id_, {Value(std::int64_t{2})},
               ContRef{ClosureId{net::NodeId{9}, 1}, 0, net::NodeId{9}}, 0);
  core_->handle_participant_death(net::NodeId{9});
  EXPECT_EQ(pop_args(*core_), (std::vector<std::int64_t>{2}));
}

TEST_F(WorkerCoreTest, RedoneTaskResultIsIdempotentDownstream) {
  // Victim's join receives the result twice (once from the original thief's
  // pre-crash execution, once from the redo): the second is dropped.
  const ClosureId join = core_->create_waiting(sum_id_, 2, remote_cont(), 0);
  core_->spawn(leaf_id_, {Value(std::int64_t{10})},
               core_->slot_ref(join, 0), 0);
  auto stolen = core_->try_steal_batch(net::NodeId{7}, 1);
  ASSERT_EQ(stolen.size(), 1u);

  // Thief executes and its result arrives...
  EXPECT_EQ(core_->deliver_remote(join, 0, Value(std::int64_t{10})),
            WorkerCore::Deliver::kFilled);
  // ...then the thief is declared dead and the task redone locally.
  core_->handle_participant_death(net::NodeId{7});
  drain();
  EXPECT_EQ(core_->stats().args_duplicate, 1u);
  // Join still waits for slot 1; fill it and confirm the sum used the first
  // delivery only.
  EXPECT_EQ(core_->deliver_remote(join, 1, Value(std::int64_t{5})),
            WorkerCore::Deliver::kBecameReady);
  drain();
  ASSERT_EQ(remote_sends_.size(), 1u);
  EXPECT_EQ(remote_sends_[0].second.as_int(), 15);
}

TEST_F(WorkerCoreTest, ClearStealLedger) {
  core_->spawn(leaf_id_, {Value(std::int64_t{1})}, remote_cont(), 0);
  core_->try_steal_batch(net::NodeId{7}, 1);
  core_->clear_steal_ledger();
  EXPECT_EQ(core_->handle_participant_death(net::NodeId{7}), 0u);
}

TEST(TaskRegistryTest, RegistersAndLooksUp) {
  TaskRegistry reg;
  const TaskId a = reg.add("a", [](Context&, Closure&) {});
  const TaskId b = reg.add("b", [](Context&, Closure&) {});
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.id_of("a"), a);
  EXPECT_EQ(reg.id_of("b"), b);
  EXPECT_EQ(reg.name_of(a), "a");
  EXPECT_NE(reg.entry(a).fn, nullptr);
  EXPECT_TRUE(reg.has("a"));
  EXPECT_FALSE(reg.has("c"));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(TaskRegistryTest, RejectsDuplicateNames) {
  TaskRegistry reg;
  reg.add("a", [](Context&, Closure&) {});
  EXPECT_THROW(reg.add("a", [](Context&, Closure&) {}),
               std::invalid_argument);
}

TEST(TaskRegistryTest, UnknownLookupsThrow) {
  TaskRegistry reg;
  EXPECT_THROW(reg.id_of("nope"), std::out_of_range);
  EXPECT_THROW(reg.entry(0), std::out_of_range);
  EXPECT_THROW(reg.name_of(0), std::out_of_range);
}

TEST(LocalRunnerTest, RunsTrivialTask) {
  TaskRegistry reg;
  const TaskId t = reg.add("id", [](Context& cx, Closure& c) {
    cx.send(c.cont, c.args[0]);
  });
  LocalRunner runner(reg);
  EXPECT_EQ(runner.run(t, {Value(std::int64_t{5})}).as_int(), 5);
}

TEST(LocalRunnerTest, ThrowsWithoutResult) {
  TaskRegistry reg;
  const TaskId t = reg.add("noop", [](Context&, Closure&) {});
  LocalRunner runner(reg);
  EXPECT_THROW(runner.run(t, {}), std::runtime_error);
}

TEST(LocalRunnerTest, RunByName) {
  TaskRegistry reg;
  reg.add("id", [](Context& cx, Closure& c) { cx.send(c.cont, c.args[0]); });
  LocalRunner runner(reg);
  EXPECT_EQ(runner.run("id", {Value(std::int64_t{11})}).as_int(), 11);
}

TEST(LocalRunnerTest, CanRunTwice) {
  TaskRegistry reg;
  reg.add("id", [](Context& cx, Closure& c) { cx.send(c.cont, c.args[0]); });
  LocalRunner runner(reg);
  EXPECT_EQ(runner.run("id", {Value(std::int64_t{1})}).as_int(), 1);
  EXPECT_EQ(runner.run("id", {Value(std::int64_t{2})}).as_int(), 2);
}

}  // namespace
}  // namespace phish
