// Differential tests: the task hot path against the seed path's numbers.
//
// The task hot path (closure pooling, lazy id materialization, in-place
// argument assignment, fused LIFO spawn, the lock-free Chase–Lev ready
// deque) must be a pure performance change.  The seed's path — a heap
// allocation and an eager id per closure, no fused register, the guarded
// ring — is gone, so the numbers it produced are pinned here as literals:
// the result, the scheduler statistics and, under a deterministic clock,
// the trace bytes.  Both ready-deque backends are held to the same
// literals, which also checks them against each other.  A hot-path tweak
// that changes scheduling behavior (and not just its cost) fails loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "core/local_runner.hpp"
#include "core/worker_core.hpp"
#include "obs/clock.hpp"
#include "obs/trace_file.hpp"
#include "obs/tracer.hpp"

namespace phish {
namespace {

struct Backend {
  const char* name;
  CoreOptions options;
};

const Backend kBackends[] = {
    {"ring", CoreOptions{}},
    {"chase-lev", CoreOptions{.lockfree_deque = true}},
};

/// The stats fields that define scheduling behavior, as the seed path
/// produced them.
struct SeedStats {
  std::uint64_t executed;
  std::uint64_t spawned;
  std::uint64_t created;
  std::uint64_t max_in_use;
  std::uint64_t synchronizations;
  std::uint64_t non_local;
  std::uint64_t depth_total;
  std::uint64_t stolen_from_me = 0;
  std::uint64_t stolen_by_me = 0;
};

// Compared field by field so a mismatch names the counter that diverged.
void expect_seed_stats(const WorkerStats& got, const SeedStats& want,
                       const std::string& label) {
  EXPECT_EQ(got.tasks_executed, want.executed) << label;
  EXPECT_EQ(got.tasks_spawned, want.spawned) << label;
  EXPECT_EQ(got.closures_created, want.created) << label;
  EXPECT_EQ(got.max_tasks_in_use, want.max_in_use) << label;
  EXPECT_EQ(got.synchronizations, want.synchronizations) << label;
  EXPECT_EQ(got.non_local_synchs, want.non_local) << label;
  EXPECT_EQ(got.args_duplicate, 0u) << label;
  EXPECT_EQ(got.args_unknown_closure, 0u) << label;
  EXPECT_EQ(got.executed_depth_total, want.depth_total) << label;
  EXPECT_EQ(got.tasks_stolen_from_me, want.stolen_from_me) << label;
  EXPECT_EQ(got.tasks_stolen_by_me, want.stolen_by_me) << label;
}

// ---------------------------------------------------------------------------
// Single-core runs: both backends compute the seed's value with its stats.
// ---------------------------------------------------------------------------

struct RunOutcome {
  Value result;
  WorkerStats stats;
};

RunOutcome run_app(const CoreOptions& options, const TaskRegistry& registry,
                   TaskId root, std::vector<Value> args) {
  LocalRunner runner(registry, options);
  RunOutcome out{runner.run(root, std::move(args)), runner.stats()};
  return out;
}

TEST(Differential, FibIdenticalAcrossModes) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, /*sequential_cutoff=*/0);
  for (const Backend& b : kBackends) {
    const RunOutcome got =
        run_app(b.options, reg, root, {Value(std::int64_t{18})});
    EXPECT_EQ(got.result.as_int(), apps::fib_serial(18)) << b.name;
    expect_seed_stats(got.stats, {12'541, 8'361, 12'541, 20, 8'361, 1, 144'630},
                      b.name);
  }
}

TEST(Differential, NQueensIdenticalAcrossModes) {
  TaskRegistry reg;
  const TaskId root = apps::register_nqueens(reg, /*sequential_rows=*/4);
  for (const Backend& b : kBackends) {
    const RunOutcome got =
        run_app(b.options, reg, root, {Value(std::int64_t{8})});
    EXPECT_EQ(got.result.as_int(), apps::nqueens_serial(8)) << b.name;
    expect_seed_stats(got.stats, {727, 536, 727, 23, 535, 1, 3'317}, b.name);
  }
}

TEST(Differential, PfoldIdenticalAcrossModes) {
  TaskRegistry reg;
  const TaskId root = apps::register_pfold(reg, /*sequential_monomers=*/4);
  const Histogram expected = apps::pfold_serial(10);
  for (const Backend& b : kBackends) {
    const RunOutcome got =
        run_app(b.options, reg, root, {Value(std::int64_t{10})});
    EXPECT_EQ(apps::decode_histogram(got.result.as_blob()), expected)
        << b.name;
    expect_seed_stats(got.stats, {148, 110, 148, 14, 109, 1, 661}, b.name);
  }
}

// FIFO execution (the paper's Table 2 runs both disciplines) has no fused
// register and always uses the guarded ring.
TEST(Differential, FifoExecutionMatchesSeedPath) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, 0);
  const RunOutcome got =
      run_app(CoreOptions{ExecOrder::kFifo, StealOrder::kLifo}, reg, root,
              {Value(std::int64_t{14})});
  EXPECT_EQ(got.result.as_int(), apps::fib_serial(14));
  expect_seed_stats(got.stats, {1'828, 1'219, 1'828, 838, 1'219, 1, 15'807},
                    "fifo");
}

// ---------------------------------------------------------------------------
// Trace replay: under a deterministic clock, both backends produce the seed
// path's trace bytes.  (With a tracer attached, lazy cores assign ids
// eagerly so events stay named — the pinned bytes are what hold that
// contract.)
// ---------------------------------------------------------------------------

// now() must be const (obs::VirtualClock adapts a const source); ticking is
// observable state the test owns, hence mutable.
struct CountingSource {
  mutable std::uint64_t t = 0;
  std::uint64_t now() const { return ++t; }
};

Bytes traced_run_bytes(const CoreOptions& options) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, 0);
  obs::Tracer tracer(1u << 18);
  CountingSource source;
  obs::VirtualClock<CountingSource> clock(source);
  LocalRunner runner(reg, options);
  runner.core().set_trace(tracer.shard(0), &clock);
  const Value result = runner.run(root, {Value(std::int64_t{14})});
  EXPECT_EQ(result.as_int(), apps::fib_serial(14));
  obs::TraceData data;
  data.runtime = "differential";
  data.clock = obs::ClockDomain::kVirtual;
  data.participants = 1;
  data.take_from(tracer);
  EXPECT_EQ(data.dropped, 0u);
  return obs::encode_trace(data);
}

std::uint64_t fnv1a64(const Bytes& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Differential, TraceBytesIdenticalAcrossModes) {
  for (const Backend& b : kBackends) {
    const Bytes got = traced_run_bytes(b.options);
    EXPECT_EQ(got.size(), 219'417u) << b.name;
    EXPECT_EQ(fnv1a64(got), 0x4813fd939e69cbb2ULL) << b.name;
  }
}

// ---------------------------------------------------------------------------
// Steals: lazy victims materialize ids at steal time; the stolen work and
// the final result must match the seed path's.
// ---------------------------------------------------------------------------

// Two cores wired back-to-back in memory.  Remote sends are queued and
// pumped deterministically; the thief steals in batches whenever it runs
// dry, so lazy victims exercise materialize() on every stolen closure.
struct TwoCoreResult {
  Value result;
  WorkerStats victim;
  WorkerStats thief;
};

TwoCoreResult run_two_cores(const CoreOptions& options,
                            const TaskRegistry& reg, TaskId root,
                            std::vector<Value> args) {
  std::optional<Value> result;
  std::deque<std::pair<ContRef, Value>> wires;
  WorkerCore::Hooks hooks;
  hooks.send_remote = [&](const ContRef& cont, Value value) {
    if (cont.home == kResultNode) {
      result = std::move(value);
      return;
    }
    wires.emplace_back(cont, std::move(value));
  };
  WorkerCore victim(net::NodeId{0}, reg, hooks, options);
  WorkerCore thief(net::NodeId{1}, reg, hooks, options);
  WorkerCore* cores[2] = {&victim, &thief};

  victim.spawn(root, ArgSlots(std::move(args)), root_continuation(), 0);
  // Round-robin: each core runs a small batch, the thief steals when idle,
  // queued cross-core sends are delivered between batches.  Deterministic,
  // so stats can be pinned.
  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (int i = 0; i < 2; ++i) {
      for (int n = 0; n < 4; ++n) {
        auto task = cores[i]->pop_for_execution();
        if (!task) break;
        cores[i]->execute(*task);
        work_left = true;
      }
    }
    if (!thief.has_ready()) {
      thief.note_steal_request_sent();
      std::vector<Closure> got =
          victim.try_steal_batch(net::NodeId{1}, WorkerCore::kMaxStealBatch);
      if (got.empty()) {
        thief.note_steal_failed();
      } else {
        for (Closure& c : got) {
          // Every stolen closure must have been materialized by the victim.
          EXPECT_TRUE(c.id.valid());
          thief.install_stolen(std::move(c));
        }
        work_left = true;
      }
    }
    while (!wires.empty()) {
      auto [cont, value] = std::move(wires.front());
      wires.pop_front();
      cores[cont.home.value]->deliver_remote(cont.target, cont.slot,
                                             std::move(value));
      work_left = true;
    }
  }
  TwoCoreResult out;
  EXPECT_TRUE(result.has_value());
  out.result = result.value_or(Value());
  out.victim = victim.stats();
  out.thief = thief.stats();
  return out;
}

TEST(Differential, StealMaterializationMatchesSeedPath) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, 0);
  for (const Backend& b : kBackends) {
    const TwoCoreResult got =
        run_two_cores(b.options, reg, root, {Value(std::int64_t{15})});
    EXPECT_EQ(got.result.as_int(), apps::fib_serial(15)) << b.name;
    // The pump steals twice, so materialization is exercised.
    expect_seed_stats(got.victim,
                      {434, 291, 436, 15, 289, 1, 3'660, /*stolen_from_me=*/2},
                      std::string(b.name) + "/victim");
    expect_seed_stats(got.thief,
                      {2'525, 1'682, 2'525, 16, 1'684, 2, 24'057, 0,
                       /*stolen_by_me=*/2},
                      std::string(b.name) + "/thief");
  }
}

// Stolen ids must be globally unique even when the victim materializes them
// lazily: each first-time materialization must mint a fresh sequence number,
// never one a join or an earlier steal already holds.  The thief is a
// separate core (a closure stolen twice from the same core would keep its
// id, legitimately).
TEST(Differential, LazyMaterializedIdsAreUnique) {
  TaskRegistry reg;
  const TaskId root = apps::register_fib(reg, 0);
  std::optional<Value> result;
  std::deque<std::pair<ContRef, Value>> wires;
  WorkerCore::Hooks hooks;
  hooks.send_remote = [&](const ContRef& cont, Value value) {
    if (cont.home == kResultNode) {
      result = std::move(value);
      return;
    }
    wires.emplace_back(cont, std::move(value));
  };
  WorkerCore victim(net::NodeId{0}, reg, hooks);
  WorkerCore thief(net::NodeId{1}, reg, hooks);
  WorkerCore* cores[2] = {&victim, &thief};
  victim.spawn(root, {Value(std::int64_t{12})}, root_continuation(), 0);
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (int i = 0; i < 2; ++i) {
      for (int n = 0; n < 3; ++n) {
        auto task = cores[i]->pop_for_execution();
        if (!task) break;
        cores[i]->execute(*task);
        work_left = true;
      }
    }
    // Steal in small batches so materialization happens at varied points.
    std::vector<Closure> got = victim.try_steal_batch(net::NodeId{1}, 4);
    for (Closure& c : got) {
      ASSERT_TRUE(c.id.valid());
      const auto key = std::make_pair(c.id.origin.value, c.id.seq);
      EXPECT_TRUE(seen.insert(key).second)
          << "duplicate materialized id " << to_string(c.id);
      thief.install_stolen(std::move(c));
      work_left = true;
    }
    while (!wires.empty()) {
      auto [cont, value] = std::move(wires.front());
      wires.pop_front();
      cores[cont.home.value]->deliver_remote(cont.target, cont.slot,
                                             std::move(value));
      work_left = true;
    }
  }
  EXPECT_GT(seen.size(), 0u);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->as_int(), apps::fib_serial(12));
}

}  // namespace
}  // namespace phish
