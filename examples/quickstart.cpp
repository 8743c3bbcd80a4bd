// Quickstart: the Phish programming model in one file.
//
// Tasks are continuation-passing closures: a task either sends its result to
// its continuation, or spawns children that feed a join closure which sends
// onward.  This example defines doubly-recursive Fibonacci exactly the way a
// Phish application would have been written in 1994 (minus the C
// preprocessor), then runs it on the shared-memory threads runtime and
// checks the answer against a serial Fibonacci (exit status 1 on a
// mismatch).
//
//   build/examples/quickstart [--n=28] [--workers=4]
#include <cstdio>

#include "apps/fib/fib.hpp"
#include "core/task_registry.hpp"
#include "core/worker_core.hpp"
#include "runtime/threads/threads_runtime.hpp"
#include "util/flags.hpp"

using namespace phish;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const std::int64_t n = flags.get_int("n", 28);
  const int workers = static_cast<int>(flags.get_int("workers", 4));

  TaskRegistry registry;

  // The join: two slots; when both children have sent their values, add
  // them and pass the sum to our own continuation.
  const TaskId sum = registry.add("sum", [](Context& cx, Closure& c) {
    cx.send(c.cont, c.args[0].as_int() + c.args[1].as_int());
  });

  // The worker task: either answer directly or fork two children joined by
  // `sum`.
  const TaskId fib = registry.add("fib", [sum](Context& cx, Closure& c) {
    const std::int64_t k = c.args[0].as_int();
    if (k < 2) {
      cx.send(c.cont, k);
      return;
    }
    const ClosureId join = cx.make_join(sum, /*nslots=*/2, c.cont);
    cx.spawn(c.task, {Value(k - 1)}, cx.slot(join, 0));
    cx.spawn(c.task, {Value(k - 2)}, cx.slot(join, 1));
  });

  rt::ThreadsConfig config;
  config.workers = workers;
  rt::ThreadsRuntime runtime(registry, config);
  const auto result = runtime.run(fib, {Value(n)});
  const bool exact = result.value.as_int() == apps::fib_serial(n);

  std::printf("fib(%lld) = %lld   result %s\n", static_cast<long long>(n),
              static_cast<long long>(result.value.as_int()),
              exact ? "exact" : "WRONG");
  std::printf("workers            %d\n", workers);
  std::printf("elapsed            %.3f s\n", result.elapsed_seconds);
  std::printf("tasks executed     %llu\n",
              static_cast<unsigned long long>(result.aggregate.tasks_executed));
  std::printf("tasks stolen       %llu\n",
              static_cast<unsigned long long>(
                  result.aggregate.tasks_stolen_by_me));
  std::printf("max tasks in use   %llu   (LIFO keeps this ~ recursion depth)\n",
              static_cast<unsigned long long>(
                  result.aggregate.max_tasks_in_use));
  return exact ? 0 : 1;
}
