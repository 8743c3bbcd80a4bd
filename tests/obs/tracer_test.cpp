// Tracer: shard identity, deterministic collect() ordering, the runtime
// enable switch, drop accounting, and a live multi-producer collect (the
// TSan build certifies producers + the collecting consumer race-free).
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace phish::obs {
namespace {

TEST(Tracer, ShardIsStablePerTid) {
  Tracer tracer;
  TraceShard* a = tracer.shard(3);
  TraceShard* b = tracer.shard(3);
  TraceShard* c = tracer.shard(7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a->tid(), 3);
  EXPECT_EQ(c->tid(), 7);
  EXPECT_EQ(tracer.shard_count(), 2u);
}

TEST(Tracer, CollectSortsAcrossShards) {
  Tracer tracer;
  TraceShard* w0 = tracer.shard(0);
  TraceShard* w1 = tracer.shard(1);
  // Interleave timestamps across two shards; collect() must return global
  // time order regardless of which ring a record sits in.
  w1->emit(make_event(EventType::kSpawn, 1, 200));
  w0->emit(make_event(EventType::kSpawn, 0, 100));
  w0->emit(make_event(EventType::kExecute, 0, 300));
  w1->emit(make_event(EventType::kStealRequest, 1, 150));
  const std::vector<TraceEvent> events = tracer.collect();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].t_start, 100u);
  EXPECT_EQ(events[1].t_start, 150u);
  EXPECT_EQ(events[2].t_start, 200u);
  EXPECT_EQ(events[3].t_start, 300u);
  // collect() drains: a second collect sees only newer events.
  EXPECT_TRUE(tracer.collect().empty());
}

TEST(Tracer, TiesBreakDeterministically) {
  Tracer tracer;
  tracer.shard(2)->emit(make_event(EventType::kSpawn, 2, 50));
  tracer.shard(1)->emit(make_event(EventType::kSpawn, 1, 50));
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].worker, 1);  // same t_start: worker breaks the tie
  EXPECT_EQ(events[1].worker, 2);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  TraceShard* shard = tracer.shard(0);
  tracer.set_enabled(false);
  EXPECT_FALSE(shard->enabled());
  shard->emit(make_event(EventType::kSpawn, 0, 1));
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.total_dropped(), 0u);  // suppressed, not dropped
  tracer.set_enabled(true);
  EXPECT_TRUE(shard->enabled());
  shard->emit(make_event(EventType::kSpawn, 0, 2));
  EXPECT_EQ(tracer.collect().size(), 1u);
}

TEST(Tracer, OverflowCountsAcrossShards) {
  Tracer tracer(/*shard_capacity=*/4);
  TraceShard* a = tracer.shard(0);
  TraceShard* b = tracer.shard(1);
  for (int i = 0; i < 6; ++i) {
    a->emit(make_event(EventType::kSpawn, 0, static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 5; ++i) {
    b->emit(make_event(EventType::kSpawn, 1, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(a->dropped(), 2u);
  EXPECT_EQ(b->dropped(), 1u);
  EXPECT_EQ(tracer.total_dropped(), 3u);
  // What survived is the oldest (drop-newest policy), still in order.
  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events[0].t_start, 0u);
}

TEST(Tracer, ConcurrentProducersAndLiveCollect) {
  // Each producer thread owns one shard (the SPSC contract); the main
  // thread collects while they run.  Nothing may be lost or duplicated.
  constexpr int kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 50'000;
  Tracer tracer(/*shard_capacity=*/1u << 17);  // no drops wanted
  std::vector<TraceShard*> shards;
  shards.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    shards.push_back(tracer.shard(static_cast<std::uint16_t>(w)));
  }
  std::atomic<int> live{kWorkers};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        shards[w]->emit(make_event(
            EventType::kSpawn, static_cast<std::uint16_t>(w), i));
      }
      live.fetch_sub(1);
    });
  }
  std::vector<TraceEvent> all;
  while (live.load() > 0) {
    const auto batch = tracer.collect();
    all.insert(all.end(), batch.begin(), batch.end());
  }
  for (auto& t : threads) t.join();
  const auto tail = tracer.collect();
  all.insert(all.end(), tail.begin(), tail.end());
  EXPECT_EQ(tracer.total_dropped(), 0u);
  ASSERT_EQ(all.size(), kWorkers * kPerWorker);
  // Per worker, events must arrive exactly once and in emission order.
  std::vector<std::uint64_t> next(kWorkers, 0);
  for (const TraceEvent& e : all) {
    ASSERT_LT(e.worker, kWorkers);
    ASSERT_EQ(e.t_start, next[e.worker]) << "worker " << e.worker;
    ++next[e.worker];
  }
}

}  // namespace
}  // namespace phish::obs
