#include "core/ready_deque.hpp"

#include <gtest/gtest.h>

#include <deque>

namespace phish {
namespace {

// The deque stores Closure*; the closures themselves outlive it here (in
// production they live in the worker's ClosurePool).
class ReadyDequeTest : public ::testing::Test {
 protected:
  Closure* make_task(std::uint64_t seq) {
    Closure& c = storage_.emplace_back();
    c.id = ClosureId{net::NodeId{0}, seq};
    c.task = 0;
    return &c;
  }

  std::deque<Closure> storage_;  // stable addresses
};

std::uint64_t seq_of(const Closure* c) { return c->id.seq; }

TEST_F(ReadyDequeTest, StartsEmpty) {
  ReadyDeque d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.pop_for_execution(), nullptr);
  EXPECT_EQ(d.pop_for_steal(), nullptr);
}

TEST_F(ReadyDequeTest, LifoExecutionOrder) {
  // Paper Figure 1(b): spawns go to the head; the owner works the head.
  ReadyDeque d;
  for (std::uint64_t i = 1; i <= 4; ++i) d.push(make_task(i));
  EXPECT_EQ(seq_of(d.pop_for_execution()), 4u);
  EXPECT_EQ(seq_of(d.pop_for_execution()), 3u);
  d.push(make_task(5));
  EXPECT_EQ(seq_of(d.pop_for_execution()), 5u);
  EXPECT_EQ(seq_of(d.pop_for_execution()), 2u);
  EXPECT_EQ(seq_of(d.pop_for_execution()), 1u);
  EXPECT_TRUE(d.empty());
}

TEST_F(ReadyDequeTest, FifoStealOrder) {
  // Paper Figure 1(c): thieves take the tail — the oldest task.
  ReadyDeque d;
  for (std::uint64_t i = 1; i <= 4; ++i) d.push(make_task(i));
  EXPECT_EQ(seq_of(d.pop_for_steal()), 1u);
  EXPECT_EQ(seq_of(d.pop_for_steal()), 2u);
  // Owner and thief interleave on opposite ends.
  EXPECT_EQ(seq_of(d.pop_for_execution()), 4u);
  EXPECT_EQ(seq_of(d.pop_for_steal()), 3u);
  EXPECT_TRUE(d.empty());
}

TEST_F(ReadyDequeTest, AblationFifoExecution) {
  ReadyDeque d(ExecOrder::kFifo, StealOrder::kFifo);
  for (std::uint64_t i = 1; i <= 3; ++i) d.push(make_task(i));
  EXPECT_EQ(seq_of(d.pop_for_execution()), 1u);
  EXPECT_EQ(seq_of(d.pop_for_execution()), 2u);
  EXPECT_EQ(seq_of(d.pop_for_execution()), 3u);
}

TEST_F(ReadyDequeTest, AblationLifoSteal) {
  ReadyDeque d(ExecOrder::kLifo, StealOrder::kLifo);
  for (std::uint64_t i = 1; i <= 3; ++i) d.push(make_task(i));
  EXPECT_EQ(seq_of(d.pop_for_steal()), 3u);
  EXPECT_EQ(seq_of(d.pop_for_steal()), 2u);
}

TEST_F(ReadyDequeTest, StealBatchTakesHalfFromTheTail) {
  ReadyDeque d;
  for (std::uint64_t i = 1; i <= 8; ++i) d.push(make_task(i));
  Closure* out[8];
  // Half of 8 = 4, in pop_for_steal order (oldest first).
  EXPECT_EQ(d.pop_for_steal_batch(out, 8), 4u);
  EXPECT_EQ(seq_of(out[0]), 1u);
  EXPECT_EQ(seq_of(out[1]), 2u);
  EXPECT_EQ(seq_of(out[2]), 3u);
  EXPECT_EQ(seq_of(out[3]), 4u);
  EXPECT_EQ(d.size(), 4u);
  // The owner's LIFO end is untouched.
  EXPECT_EQ(seq_of(d.pop_for_execution()), 8u);
}

TEST_F(ReadyDequeTest, StealBatchRespectsMaxAndTakesAtLeastOne) {
  ReadyDeque d;
  for (std::uint64_t i = 1; i <= 8; ++i) d.push(make_task(i));
  Closure* out[8];
  EXPECT_EQ(d.pop_for_steal_batch(out, 2), 2u);  // capped by max
  EXPECT_EQ(d.size(), 6u);
  // A single queued task is still stealable (count/2 rounds up to 1).
  ReadyDeque single;
  single.push(make_task(99));
  EXPECT_EQ(single.pop_for_steal_batch(out, 8), 1u);
  EXPECT_EQ(seq_of(out[0]), 99u);
  EXPECT_TRUE(single.empty());
  EXPECT_EQ(single.pop_for_steal_batch(out, 8), 0u);
}

TEST_F(ReadyDequeTest, GrowsPastInitialCapacityAndKeepsOrder) {
  ReadyDeque d;
  // Exercise ring wrap + growth: interleave pushes with pops so head moves.
  for (std::uint64_t i = 1; i <= 40; ++i) d.push(make_task(i));
  for (int i = 0; i < 30; ++i) d.pop_for_steal();
  for (std::uint64_t i = 41; i <= 200; ++i) d.push(make_task(i));
  EXPECT_EQ(d.size(), 170u);
  EXPECT_EQ(seq_of(d.pop_for_execution()), 200u);
  EXPECT_EQ(seq_of(d.pop_for_steal()), 31u);
}

TEST_F(ReadyDequeTest, DrainReturnsEverythingHeadFirst) {
  ReadyDeque d;
  for (std::uint64_t i = 1; i <= 5; ++i) d.push(make_task(i));
  auto all = d.drain();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(seq_of(all.front()), 5u);
  EXPECT_EQ(seq_of(all.back()), 1u);
  EXPECT_TRUE(d.empty());
}

TEST_F(ReadyDequeTest, AtInspectsHeadRelative) {
  ReadyDeque d;
  for (std::uint64_t i = 1; i <= 3; ++i) d.push(make_task(i));
  EXPECT_EQ(d.at(0)->id.seq, 3u);  // head = next LIFO pop
  EXPECT_EQ(d.at(1)->id.seq, 2u);
  EXPECT_EQ(d.at(2)->id.seq, 1u);
}

TEST_F(ReadyDequeTest, PoliciesAreReported) {
  ReadyDeque d(ExecOrder::kFifo, StealOrder::kLifo);
  EXPECT_EQ(d.exec_order(), ExecOrder::kFifo);
  EXPECT_EQ(d.steal_order(), StealOrder::kLifo);
}

}  // namespace
}  // namespace phish
