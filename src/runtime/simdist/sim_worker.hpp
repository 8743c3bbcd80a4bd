// The simulator driver of the Phish worker protocol.
//
// SimWorker runs a WorkerNode (runtime/node/worker_node.hpp, the protocol
// itself) on the discrete-event simulator.  It adds only the cost model: each
// executed task advances the worker's clock by a scheduling overhead plus the
// work the task reported via Context::charge, every message charges the
// sender/receiver the configured software overhead — the cost structure the
// paper identifies as dominant on workstation networks — and sends a task
// issues leave only once its simulated execution has finished.
#pragma once

#include <functional>
#include <vector>

#include "net/sim_net.hpp"
#include "runtime/node/worker_node.hpp"

namespace phish::rt {

struct SimWorkerParams : NodeParams {
  /// Scheduling overhead charged per task executed (task packaging,
  /// queue manipulation, network polling — the serial-slowdown sources).
  sim::SimTime task_overhead = 5 * sim::kMicrosecond;
  /// Simulated time per unit of application work (Context::charge).
  sim::SimTime charge_unit = 2 * sim::kMicrosecond;
  /// Relative CPU speed (2.0 = twice as fast); scales all compute costs.
  double cpu_speed = 1.0;
};

class SimWorker final : private WorkerNode::Driver, public WorkerNode {
 public:
  /// `clearinghouse` is the replica ring (primary first, then any warm
  /// standby); all coordinator traffic fails over across it.
  SimWorker(sim::Simulator& simulator, net::SimNetwork& network,
            net::TimerService& timers, const TaskRegistry& registry,
            net::NodeId me, std::vector<net::NodeId> clearinghouse,
            SimWorkerParams params, std::uint64_t seed,
            ExecOrder exec_order = ExecOrder::kLifo,
            StealOrder steal_order = StealOrder::kFifo);

  /// Fails pending RPCs while the fields their completions touch are alive.
  ~SimWorker() { rpc().shutdown(); }

  /// True when this worker holds nothing that a checkpoint would miss:
  /// no buffered sends awaiting their task-cost flush and no steal RPC
  /// outstanding.  (The network's own in-flight count is checked by the
  /// checkpoint service.)
  bool checkpoint_quiescent() const noexcept {
    return outbox_.empty() && !steal_in_flight();
  }

  const net::ChannelStats& channel_stats() const {
    return network_.channel(id()).stats();
  }

  /// Attach a trace sink (virtual-clock domain).  The core's own kExecute
  /// spans are suppressed: virtual time does not advance inside execute(),
  /// so this worker emits [now, now + cost] spans itself once the task's
  /// simulated cost is known.
  void set_trace(obs::TraceShard* shard, const obs::Clock* clock) {
    trace_shard_ = (shard != nullptr && clock != nullptr) ? shard : nullptr;
    WorkerNode::set_trace(shard, clock, /*execute_spans=*/false);
  }

 private:
  // WorkerNode::Driver.
  void schedule_step(std::uint64_t delay) override;
  void cancel_step() override;
  void send_from_task(std::function<void()> send) override;
  void charge_send(std::size_t bytes) override {
    cpu_debt_ += network_.send_cpu_cost(bytes);
  }
  void charge_recv() override { cpu_debt_ += network_.recv_cpu_cost(); }
  void isolate(bool cut) override;
  int cluster_of(net::NodeId node) const override {
    return network_.cluster_of(node);
  }

  /// Run one ready task and charge its simulated cost, or go stealing.
  void step();
  sim::SimTime scaled(sim::SimTime cpu_time) const {
    return static_cast<sim::SimTime>(static_cast<double>(cpu_time) /
                                     params_.cpu_speed);
  }

  sim::Simulator& sim_;
  net::SimNetwork& network_;
  SimWorkerParams params_;

  bool step_scheduled_ = false;
  sim::EventId step_event_{};
  sim::SimTime next_step_time_ = 0;
  sim::SimTime cpu_debt_ = 0;  // message-handling CPU to charge at next step
  bool executing_ = false;     // inside core().execute()
  std::vector<std::function<void()>> outbox_;  // sends buffered mid-task
  obs::TraceShard* trace_shard_ = nullptr;
};

}  // namespace phish::rt
