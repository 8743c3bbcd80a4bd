// Ablation A5 + hot-path gate — ready-deque implementations and the task
// hot path (google-benchmark + BENCH_deque_micro.json).
//
// The 1994 prototype's ready list needs no synchronization at all (steals
// arrive as messages, handled by the same process), which this repo models
// with the plain ReadyDeque.  The shared-memory threads runtime guards that
// deque with a mutex; the Chase–Lev deque is the modern lock-free
// alternative.  These microbenches quantify the per-operation costs so the
// ablation discussion in DESIGN.md has numbers: on a workstation network the
// difference vanishes under ~400 us message overheads, but in shared memory
// it is visible.
//
// Before the google-benchmark tables, main() times the scheduler's three hot
// cycles directly — spawn/execute, join create/fill/execute, steal serve —
// and writes them to BENCH_deque_micro.json together with a machine-speed
// calibration loop.  scripts/check_perf_regression.py gates commits on the
// calibration-normalized ratios (see bench/baseline/README.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "bench_util.hpp"
#include "core/chase_lev.hpp"
#include "core/ready_deque.hpp"
#include "core/worker_core.hpp"
#include "obs/bench_report.hpp"
#include "obs/clock.hpp"
#include "obs/tracer.hpp"

namespace phish {
namespace {

Closure make_closure(std::uint64_t seq) {
  Closure c;
  c.id = ClosureId{net::NodeId{0}, seq};
  c.task = 0;
  c.args = {Value(std::int64_t{1}), Value(std::int64_t{2})};
  return c;
}

void BM_ReadyDequePushPop(benchmark::State& state) {
  // The production configuration: the ring holds pointers into the worker's
  // pool, so push/pop move one pointer.
  ReadyDeque d;
  Closure c = make_closure(1);
  for (auto _ : state) {
    d.push(&c);
    benchmark::DoNotOptimize(d.pop_for_execution());
  }
}
BENCHMARK(BM_ReadyDequePushPop);

void BM_ReadyDequePushPopWithMutex(benchmark::State& state) {
  // The threads runtime's actual configuration: deque ops under a mutex.
  ReadyDeque d;
  std::mutex m;
  Closure c = make_closure(1);
  for (auto _ : state) {
    {
      std::lock_guard<std::mutex> lock(m);
      d.push(&c);
    }
    std::lock_guard<std::mutex> lock(m);
    benchmark::DoNotOptimize(d.pop_for_execution());
  }
}
BENCHMARK(BM_ReadyDequePushPopWithMutex);

void BM_ChaseLevPushPop(benchmark::State& state) {
  // Boxed (by-value) payload: each push heap-allocates a box.
  ChaseLevDeque<Closure> d;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    d.push(make_closure(++seq));
    benchmark::DoNotOptimize(d.pop());
  }
}
BENCHMARK(BM_ChaseLevPushPop);

void BM_ChaseLevPushPopPointer(benchmark::State& state) {
  // Pointer payload: stored directly in the slots, no boxing.
  ChaseLevDeque<Closure*> d;
  Closure c = make_closure(1);
  for (auto _ : state) {
    d.push(&c);
    benchmark::DoNotOptimize(d.pop());
  }
}
BENCHMARK(BM_ChaseLevPushPopPointer);

void BM_ReadyDequeStealPath(benchmark::State& state) {
  ReadyDeque d;
  std::mutex m;
  Closure c = make_closure(1);
  for (auto _ : state) {
    {
      std::lock_guard<std::mutex> lock(m);
      d.push(&c);
    }
    std::lock_guard<std::mutex> lock(m);
    benchmark::DoNotOptimize(d.pop_for_steal());
  }
}
BENCHMARK(BM_ReadyDequeStealPath);

void BM_ChaseLevStealPath(benchmark::State& state) {
  ChaseLevDeque<Closure> d;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    d.push(make_closure(++seq));
    benchmark::DoNotOptimize(d.steal());
  }
}
BENCHMARK(BM_ChaseLevStealPath);

void BM_ReadyDequeDeepLifo(benchmark::State& state) {
  // Model a depth-first burst: push `depth` tasks, pop them all.
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  ReadyDeque d;
  std::vector<Closure> storage;
  storage.reserve(depth);
  for (std::uint64_t i = 0; i < depth; ++i) storage.push_back(make_closure(i));
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < depth; ++i) d.push(&storage[i]);
    while (Closure* c = d.pop_for_execution()) benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_ReadyDequeDeepLifo)->Arg(16)->Arg(256)->Arg(4096);

void BM_ChaseLevDeep(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  ChaseLevDeque<Closure> d;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < depth; ++i) d.push(make_closure(i));
    while (auto c = d.pop()) benchmark::DoNotOptimize(*c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_ChaseLevDeep)->Arg(16)->Arg(256)->Arg(4096);

// ---- Tracing overhead: the full WorkerCore spawn/execute hot path with the
// observability hooks detached vs attached vs runtime-disabled.
//
// The benchmark arg is the task grain: rounds of an integer mix inside each
// leaf body.  Grain 0 is the bare-scheduler worst case and documents the
// absolute per-event cost (a few clock reads + wait-free ring pushes per
// task — tracing an *empty* task can never be free).  Grain 4096 (~7 us)
// is still far below real task bodies (pfold/fib leaves run tens of
// microseconds to milliseconds), and is where the <5% acceptance target is
// evaluated.  The disabled row must match the detached row at every grain:
// the runtime switch is checked before any clock read.

void spawn_execute_burst(WorkerCore& core, TaskId leaf, std::uint64_t n,
                         std::int64_t grain) {
  for (std::uint64_t i = 0; i < n; ++i) {
    core.spawn(leaf, {Value(grain)}, ContRef{ClosureId{}, 0, net::NodeId{0}},
               0);
  }
  while (auto c = core.pop_for_execution()) core.execute(*c);
}

TaskRegistry& leaf_registry() {
  static TaskRegistry registry = [] {
    TaskRegistry r;
    r.add("leaf", [](Context&, Closure& c) {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      const std::int64_t rounds = c.args[0].as_int();
      for (std::int64_t i = 0; i < rounds; ++i) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
      }
      benchmark::DoNotOptimize(x);
    });
    r.add("sum2", [](Context& cx, Closure& c) {
      cx.send(c.cont, Value(c.args[0].as_int() + c.args[1].as_int()));
    });
    return r;
  }();
  return registry;
}

WorkerCore::Hooks null_hooks() {
  WorkerCore::Hooks hooks;
  hooks.send_remote = [](const ContRef&, Value) {};
  return hooks;
}

void BM_WorkerCoreSpawnExecute(benchmark::State& state) {
  TaskRegistry& registry = leaf_registry();
  const TaskId leaf = registry.id_of("leaf");
  WorkerCore core(net::NodeId{0}, registry, null_hooks());
  for (auto _ : state) {
    spawn_execute_burst(core, leaf, 64, state.range(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_WorkerCoreSpawnExecute)->Arg(0)->Arg(4096);

void BM_WorkerCoreSpawnExecuteTraced(benchmark::State& state) {
  TaskRegistry& registry = leaf_registry();
  const TaskId leaf = registry.id_of("leaf");
  WorkerCore core(net::NodeId{0}, registry, null_hooks());
  obs::Tracer tracer;
  obs::SteadyClock clock;
  core.set_trace(tracer.shard(0), &clock);
  // Drain outside the timed region (every 256 bursts stays well under the
  // ring capacity) so the producer is measured on the normal push path, not
  // the ring-full drop path, and no consumer thread perturbs the numbers.
  int since_drain = 0;
  for (auto _ : state) {
    spawn_execute_burst(core, leaf, 64, state.range(0));
    if (++since_drain == 256) {
      state.PauseTiming();
      benchmark::DoNotOptimize(tracer.collect().size());
      state.ResumeTiming();
      since_drain = 0;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["dropped"] =
      static_cast<double>(tracer.total_dropped());
}
BENCHMARK(BM_WorkerCoreSpawnExecuteTraced)->Arg(0)->Arg(4096);

void BM_WorkerCoreSpawnExecuteTracerDisabled(benchmark::State& state) {
  // Shard attached but the runtime switch is off: the cost of the hooks when
  // a tracer exists but tracing is not enabled for this run.
  TaskRegistry& registry = leaf_registry();
  const TaskId leaf = registry.id_of("leaf");
  WorkerCore core(net::NodeId{0}, registry, null_hooks());
  obs::Tracer tracer;
  obs::SteadyClock clock;
  core.set_trace(tracer.shard(0), &clock);
  tracer.set_enabled(false);
  for (auto _ : state) {
    spawn_execute_burst(core, leaf, 64, state.range(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_WorkerCoreSpawnExecuteTracerDisabled)->Arg(0)->Arg(4096);

// ---- BENCH_deque_micro.json: the gated hot-path numbers. ------------------
//
// Wall-clock ns/task is machine-dependent, so the artifact also carries a
// pure-ALU calibration loop; the perf gate compares the ratio
// ns_per_task / calibration.ns_per_op, which is stable across hosts of the
// same architecture generation.

double calibration_ns_per_op() {
  constexpr std::uint64_t kOps = 1u << 24;
  volatile std::uint64_t sink = 0;
  const double secs = bench::time_best_of(3, [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
    }
    sink = x;
  });
  (void)sink;
  return secs * 1e9 / static_cast<double>(kOps);
}

double spawn_execute_ns_per_task() {
  TaskRegistry& registry = leaf_registry();
  const TaskId leaf = registry.id_of("leaf");
  constexpr std::uint64_t kBursts = 4096, kBurst = 64;
  const double secs = bench::time_best_of(5, [&] {
    WorkerCore core(net::NodeId{0}, registry, null_hooks());
    for (std::uint64_t b = 0; b < kBursts; ++b) {
      spawn_execute_burst(core, leaf, kBurst, 0);
    }
  });
  return secs * 1e9 / static_cast<double>(kBursts * kBurst);
}

double join_fill_ns_per_task() {
  // The other half of a fork/join app's task budget: create a 2-slot join,
  // fill both slots (local sends through the waiting table), execute it.
  TaskRegistry& registry = leaf_registry();
  const TaskId sum2 = registry.id_of("sum2");
  constexpr std::uint64_t kJoins = 1u << 17;
  const ContRef away{ClosureId{net::NodeId{1}, 1}, 0, net::NodeId{1}};
  const double secs = bench::time_best_of(5, [&] {
    WorkerCore core(net::NodeId{0}, registry, null_hooks());
    for (std::uint64_t i = 0; i < kJoins; ++i) {
      const ClosureId join = core.create_waiting(sum2, 2, away, 0);
      core.send_argument(core.slot_ref(join, 0), Value(std::int64_t{1}));
      core.send_argument(core.slot_ref(join, 1), Value(std::int64_t{2}));
      auto c = core.pop_for_execution();
      core.execute(*c);
    }
  });
  return secs * 1e9 / static_cast<double>(kJoins);
}

double steal_serve_ns_per_task() {
  // Victim side of a batched steal, including materialization and the redo
  // ledger, plus the thief-side install.
  TaskRegistry& registry = leaf_registry();
  const TaskId leaf = registry.id_of("leaf");
  constexpr std::uint64_t kTasks = 4096;
  const double secs = bench::time_best_of(5, [&] {
    WorkerCore victim(net::NodeId{0}, registry, null_hooks());
    WorkerCore thief(net::NodeId{1}, registry, null_hooks());
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      victim.spawn(leaf, {Value(std::int64_t{0})},
                   ContRef{ClosureId{}, 0, net::NodeId{0}}, 0);
    }
    while (victim.has_ready()) {
      auto batch = victim.try_steal_batch(net::NodeId{1}, 8);
      for (Closure& c : batch) thief.install_stolen(std::move(c));
    }
    while (auto c = thief.pop_for_execution()) thief.execute(*c);
  });
  return secs * 1e9 / static_cast<double>(kTasks);
}

double steal_concurrent_ns_per_task() {
  // Thief side of the no-victim-lock protocol: CAS-claim from the victim's
  // Chase–Lev deque, copy the closure out, park the slot for the victim to
  // reclaim.  Measured single-threaded so the number is a stable latency
  // (contention behavior belongs to the TSan steal-churn stress, not a
  // gated metric); includes the thief-side install and the victim's slot
  // reclamation, so it is the full per-task cost of a concurrent steal.
  TaskRegistry& registry = leaf_registry();
  const TaskId leaf = registry.id_of("leaf");
  constexpr std::uint64_t kTasks = 4096;
  CoreOptions lockfree;
  lockfree.lockfree_deque = true;
  const double secs = bench::time_best_of(5, [&] {
    WorkerCore victim(net::NodeId{0}, registry, null_hooks(), lockfree);
    WorkerCore thief(net::NodeId{1}, registry, null_hooks(), lockfree);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      victim.spawn(leaf, {Value(std::int64_t{0})},
                   ContRef{ClosureId{}, 0, net::NodeId{0}}, 0);
    }
    std::vector<Closure> loot;
    for (;;) {
      loot.clear();
      if (victim.steal_concurrent(loot, 8) == 0) break;
      for (Closure& c : loot) thief.install_stolen(std::move(c));
      victim.reclaim_stolen_slots();
    }
    // The fused LIFO register is deliberately out of thieves' reach; the
    // victim runs what is left so every spawned task executes.
    while (auto c = victim.pop_for_execution()) victim.execute(*c);
    while (auto c = thief.pop_for_execution()) thief.execute(*c);
  });
  return secs * 1e9 / static_cast<double>(kTasks);
}

void emit_deque_micro_report() {
  obs::BenchReport report("deque_micro");
  const double cal = calibration_ns_per_op();
  const double spawn = spawn_execute_ns_per_task();
  const double join = join_fill_ns_per_task();
  const double steal = steal_serve_ns_per_task();
  const double steal_cl = steal_concurrent_ns_per_task();
  report.set("calibration.ns_per_op", cal);
  report.set("spawn_execute.ns_per_task", spawn);
  report.set("join_fill.ns_per_task", join);
  report.set("steal_serve.ns_per_task", steal);
  report.set("steal_concurrent.ns_per_task", steal_cl);
  report.set("spawn_execute.ops_per_calibration_op", spawn / cal);
  report.set("join_fill.ops_per_calibration_op", join / cal);
  report.set("steal_serve.ops_per_calibration_op", steal / cal);
  report.set("steal_concurrent.ops_per_calibration_op", steal_cl / cal);
  report.write();
  bench::kv("deque_micro.calibration.ns_per_op", cal);
  bench::kv("deque_micro.spawn_execute.ns_per_task", spawn);
  bench::kv("deque_micro.join_fill.ns_per_task", join);
  bench::kv("deque_micro.steal_serve.ns_per_task", steal);
  bench::kv("deque_micro.steal_concurrent.ns_per_task", steal_cl);
}

}  // namespace
}  // namespace phish

int main(int argc, char** argv) {
  phish::emit_deque_micro_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
