// LocalRunner: execute a complete task graph on a single WorkerCore.
//
// This is the one-participant configuration of the micro scheduler: no
// network, no steals — the configuration whose wall-clock time is the
// T_1 ("parallel code on one processor") of the paper's serial-slowdown
// measurements, and the ground-truth executor the application tests compare
// against.
#pragma once

#include <optional>
#include <stdexcept>

#include "core/worker_core.hpp"

namespace phish {

/// Reserved node id for "the job's result sink" (the Clearinghouse plays this
/// role in the distributed runtimes).
constexpr net::NodeId kResultNode{0xfffffffe};

/// The continuation every root task is given.
inline ContRef root_continuation() {
  return ContRef{ClosureId{kResultNode, 0}, 0, kResultNode};
}

class LocalRunner {
 public:
  explicit LocalRunner(const TaskRegistry& registry,
                       ExecOrder exec_order = ExecOrder::kLifo,
                       StealOrder steal_order = StealOrder::kFifo)
      : core_(net::NodeId{0}, registry, make_hooks(), exec_order,
              steal_order) {}

  /// Full policy control (the differential tests run both deque backends
  /// through identical graphs).
  LocalRunner(const TaskRegistry& registry, const CoreOptions& options)
      : core_(net::NodeId{0}, registry, make_hooks(), options) {}

  /// Run `task(args...)` to completion and return the value it (eventually)
  /// sends to the root continuation.  Throws if the graph drains without
  /// producing a result (a task forgot to send to its continuation).
  Value run(TaskId task, std::vector<Value> args) {
    result_.reset();
    core_.spawn(task, std::move(args), root_continuation(), /*depth=*/0);
    while (auto c = core_.pop_for_execution()) {
      core_.execute(*c);
    }
    if (!result_) {
      throw std::runtime_error(
          "LocalRunner: task graph drained without a result (missing "
          "send to continuation?)");
    }
    return *result_;
  }

  Value run(const std::string& task, std::vector<Value> args) {
    return run(core_.registry().id_of(task), std::move(args));
  }

  const WorkerStats& stats() const noexcept { return core_.stats(); }
  WorkerCore& core() noexcept { return core_; }

 private:
  WorkerCore::Hooks make_hooks() {
    WorkerCore::Hooks hooks;
    hooks.send_remote = [this](const ContRef& cont, Value value) {
      if (cont.home == kResultNode) {
        result_ = std::move(value);
        return;
      }
      throw std::logic_error("LocalRunner: remote send to " +
                             to_string(cont) + " with no network");
    };
    return hooks;
  }

  std::optional<Value> result_;
  WorkerCore core_;
};

}  // namespace phish
