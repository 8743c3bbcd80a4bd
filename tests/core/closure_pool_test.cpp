// ClosurePool, WaitingTable, and ArgSlots lifetime tests.
//
// The hot path leans on subtle lifetime contracts: pool storage is never
// freed while the pool lives (stale ContRef hints are dereferenced and then
// validated by id), recycle() clears only the id (everything else is
// overwritten by the next acquire path), and the waiting table maintains
// each resident closure's bucket index through backward-shift deletions so
// erase_entry() can skip the probe.  These tests pin those contracts.
#include "core/closure_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/closure.hpp"
#include "core/waiting_table.hpp"

namespace phish {
namespace {

// ---------------------------------------------------------------------------
// ClosurePool
// ---------------------------------------------------------------------------

TEST(ClosurePool, GrowsByDoublingChunks) {
  ClosurePool pool;
  std::vector<Closure*> live;
  const std::size_t want = ClosurePool::kFirstChunk * 7;  // 448
  for (std::size_t i = 0; i < want; ++i) live.push_back(pool.acquire());
  const auto& s = pool.stats();
  EXPECT_EQ(s.acquires, want);
  EXPECT_EQ(s.live, want);
  EXPECT_EQ(s.freelist_reuses, 0u);
  // Doubling chunks: 64 + 128 + 256 = 448, carved in exactly 3 chunks.
  EXPECT_EQ(s.chunks, 3u);
  EXPECT_GE(s.capacity, want);
  // Every acquired pointer is distinct.
  std::set<Closure*> distinct(live.begin(), live.end());
  EXPECT_EQ(distinct.size(), live.size());
  for (Closure* c : live) pool.release(c);
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(ClosurePool, FreelistReusesReleasedClosures) {
  ClosurePool pool;
  Closure* a = pool.acquire();
  a->id = ClosureId{net::NodeId{0}, 42};
  a->args = ArgSlots({Value(std::int64_t{7})});
  pool.release(a);
  Closure* b = pool.acquire();
  // LIFO freelist: the most recently released closure comes back first.
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().freelist_reuses, 1u);
  // recycle() cleared the id — a stale valid id would defeat lazy
  // re-materialization on the next life...
  EXPECT_FALSE(b->id.valid());
  // ...but args are intentionally NOT cleared; the next acquire path
  // overwrites them (and assign_filled/reset release stale values in
  // place).  This is a load-bearing part of the hot path's cost budget.
}

TEST(ClosurePool, ChunkStorageSurvivesReleaseForHintValidation) {
  // send_argument dereferences ContRef::local_hint before checking the id;
  // that is only sound because pooled storage is never freed while the pool
  // lives.  Read a released closure's id through the stale pointer: it must
  // be the recycled (invalid) id, not garbage.
  ClosurePool pool;
  Closure* c = pool.acquire();
  c->id = ClosureId{net::NodeId{3}, 99};
  pool.release(c);
  EXPECT_FALSE(c->id.valid());  // safe: storage still owned by the pool
}

TEST(ClosurePool, SteadyStateIsAllocationFree) {
  ClosurePool pool;
  // Warm: one working set's worth of closures.
  std::vector<Closure*> warm;
  for (int i = 0; i < 32; ++i) warm.push_back(pool.acquire());
  for (Closure* c : warm) pool.release(c);
  const std::uint64_t chunks_before = pool.stats().chunks;
  // Steady state: every acquire must now come from the freelist.
  for (int round = 0; round < 1000; ++round) {
    Closure* c = pool.acquire();
    pool.release(c);
  }
  EXPECT_EQ(pool.stats().chunks, chunks_before);
  EXPECT_EQ(pool.stats().freelist_reuses, 1000u);
}

TEST(ClosurePool, ReusedClosureKeepsArgHeapCapacity) {
  // A wide join allocates ArgSlots heap storage; the pool promises that a
  // recycled closure keeps that capacity so warm wide joins stop
  // allocating.
  ClosurePool pool;
  Closure* c = pool.acquire();
  c->args.reset(16);  // beyond kInlineSlots: heap-backed
  for (std::uint16_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(c->args.fill(i, Value(std::int64_t{i})));
  }
  pool.release(c);
  Closure* again = pool.acquire();
  ASSERT_EQ(again, c);
  again->args.reset(16);  // must not need a fresh allocation to hold 16
  EXPECT_EQ(again->args.size(), 16u);
  for (std::uint16_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(again->args.filled(i)) << i;
  }
  pool.release(again);
}

// ---------------------------------------------------------------------------
// WaitingTable
// ---------------------------------------------------------------------------

ClosureId id_of(std::uint64_t seq) { return ClosureId{net::NodeId{0}, seq}; }

TEST(WaitingTable, InsertFindErase) {
  WaitingTable table;
  std::vector<Closure> owned(100);
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    owned[i].id = id_of(i);
    table.insert(&owned[i]);
  }
  EXPECT_EQ(table.size(), owned.size());
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(table.find(id_of(i)), &owned[i]) << i;
  }
  // Erase the evens, then every odd must still be reachable (backward-shift
  // must not strand probe chains).
  for (std::uint64_t i = 0; i < owned.size(); i += 2) {
    EXPECT_EQ(table.erase(id_of(i)), &owned[i]) << i;
  }
  EXPECT_EQ(table.size(), owned.size() / 2);
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(table.find(id_of(i)), nullptr) << i;
    } else {
      EXPECT_EQ(table.find(id_of(i)), &owned[i]) << i;
    }
  }
}

TEST(WaitingTable, EraseEntrySkipsTheProbe) {
  WaitingTable table;
  std::vector<Closure> owned(64);
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    owned[i].id = id_of(i);
    table.insert(&owned[i]);
  }
  // erase_entry uses the bucket index maintained through insert/grow/shift.
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    Closure* c = table.find(id_of(i));
    ASSERT_NE(c, nullptr) << i;
    table.erase_entry(c);
    EXPECT_EQ(table.find(id_of(i)), nullptr) << i;
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(WaitingTable, EraseEntryOnNonResidentClosureIsANoOp) {
  WaitingTable table;
  Closure resident;
  resident.id = id_of(1);
  table.insert(&resident);
  Closure stranger;
  stranger.id = id_of(2);
  stranger.wait_slot = resident.wait_slot;  // adversarial stale index
  table.erase_entry(&stranger);             // must not evict the resident
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(id_of(1)), &resident);
  stranger.wait_slot = 0xffffffffu;  // out of range: also a no-op
  table.erase_entry(&stranger);
  EXPECT_EQ(table.size(), 1u);
}

TEST(WaitingTable, BucketIndexSurvivesGrowthAndShifts) {
  // Interleave inserts and erases across several growth boundaries, then
  // verify erase_entry still lands on the right bucket for every survivor.
  WaitingTable table;
  std::vector<Closure> owned(1000);
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    owned[i].id = id_of(i);
    table.insert(&owned[i]);
    if (i % 3 == 0) table.erase(id_of(i));  // churn: forces backward shifts
  }
  for (std::uint64_t i = 0; i < owned.size(); ++i) {
    Closure* c = table.find(id_of(i));
    if (i % 3 == 0) {
      EXPECT_EQ(c, nullptr) << i;
      continue;
    }
    ASSERT_EQ(c, &owned[i]) << i;
    table.erase_entry(c);
    EXPECT_EQ(table.find(id_of(i)), nullptr) << i;
  }
  EXPECT_EQ(table.size(), 0u);
}

// ---------------------------------------------------------------------------
// ArgSlots lifetime across pool reuse
// ---------------------------------------------------------------------------

TEST(ArgSlotsReuse, AssignFilledReleasesStaleBlobs) {
  // A recycled closure may hold blob values from its previous life;
  // assign_filled overwrites them in place and must free them (ASan
  // enforces this when the suite runs under PHISH_SANITIZE=address).
  ArgSlots slots;
  slots.reset(2);
  EXPECT_TRUE(slots.fill(0, Value(Bytes(1024, 0xab))));
  EXPECT_TRUE(slots.fill(1, Value(Bytes(2048, 0xcd))));
  slots.assign_filled({Value(std::int64_t{1})});
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_TRUE(slots.filled(0));
  EXPECT_EQ(slots[0].as_int(), 1);
}

TEST(ArgSlotsReuse, TailBeyondNewSizeIsNil) {
  // assign_filled keeps reset()'s invariant: slots past size_ stay nil, so
  // a later reset to a wider shape never exposes a stale value (which would
  // otherwise leak onto the wire when a waiting closure is migrated).
  ArgSlots slots;
  slots.reset(3);
  EXPECT_TRUE(slots.fill(0, Value(Bytes(64, 0x11))));
  EXPECT_TRUE(slots.fill(1, Value(std::int64_t{5})));
  EXPECT_TRUE(slots.fill(2, Value(3.5)));
  slots.assign_filled({Value(std::int64_t{9})});
  slots.reset(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(slots.filled(i)) << i;
    EXPECT_EQ(slots[i], Value()) << i;  // nil, not a previous life's value
  }
}

TEST(ArgSlotsReuse, WideFlagArraysResetCleanly) {
  // Beyond kMaskBits the fill flags live in a heap array; a recycled wide
  // join must come back with every flag cleared.
  ArgSlots slots;
  const std::uint32_t wide = ArgSlots::kMaskBits + 8;
  slots.reset(wide);
  for (std::uint32_t i = 0; i < wide; ++i) {
    EXPECT_TRUE(slots.fill(static_cast<std::uint16_t>(i),
                           Value(std::int64_t{i})));
  }
  slots.reset(wide);
  for (std::uint32_t i = 0; i < wide; ++i) {
    EXPECT_FALSE(slots.filled(i)) << i;
  }
  // And duplicate-fill detection still works after the reset.
  EXPECT_TRUE(slots.fill(70, Value(std::int64_t{1})));
  EXPECT_FALSE(slots.fill(70, Value(std::int64_t{2})));
}

}  // namespace
}  // namespace phish
