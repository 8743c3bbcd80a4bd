#include "runtime/simdist/sim_worker.hpp"

namespace phish::rt {

SimWorker::SimWorker(sim::Simulator& simulator, net::SimNetwork& network,
                     net::TimerService& timers, const TaskRegistry& registry,
                     net::NodeId me, std::vector<net::NodeId> clearinghouse,
                     SimWorkerParams params, std::uint64_t seed,
                     ExecOrder exec_order, StealOrder steal_order)
    : WorkerNode(network.channel(me), timers, registry, me,
                 std::move(clearinghouse), params, seed, exec_order,
                 steal_order, *this),
      sim_(simulator),
      network_(network),
      params_(params) {}

void SimWorker::schedule_step(std::uint64_t delay) {
  const sim::SimTime when = sim_.now() + delay;
  if (step_scheduled_) {
    if (when >= next_step_time_) return;  // an earlier step is already set
    sim_.cancel(step_event_);
  }
  step_scheduled_ = true;
  next_step_time_ = when;
  step_event_ = sim_.schedule(delay, [this] {
    step_scheduled_ = false;
    step();
  });
}

void SimWorker::cancel_step() {
  if (!step_scheduled_) return;
  sim_.cancel(step_event_);
  step_scheduled_ = false;
}

void SimWorker::send_from_task(std::function<void()> send) {
  // A send issued mid-task leaves the machine only when the task's simulated
  // execution finishes; the outbox is flushed at now + task cost
  // (execute-then-advance would otherwise deliver results "before" the work
  // that produced them).
  if (executing_) {
    outbox_.push_back(std::move(send));
  } else {
    send();
  }
}

void SimWorker::isolate(bool cut) {
  network_.partition(id(), cut);
  if (!cut) {
    cpu_debt_ = 0;
    outbox_.clear();
  }
}

void SimWorker::step() {
  if (state() != State::kActive) return;
  sim::SimTime cost = scaled(cpu_debt_);
  cpu_debt_ = 0;

  WorkerCore& core = this->core();
  if (auto task = core.pop_for_execution()) {
    executing_ = true;
    core.execute(*task);  // sends inside are buffered; costs join cpu_debt_
    executing_ = false;
    cost += scaled(params_.task_overhead +
                   core.last_charge() * params_.charge_unit + cpu_debt_);
    cpu_debt_ = 0;
    note_task_ran();
    if (trace_shard_ != nullptr && trace_shard_->enabled()) {
      // Virtual-time span: the task occupies [now, now + cost] of simulated
      // time (the core's wall-clock span would be zero-length here).
      obs::TraceEvent e = obs::make_event(
          obs::EventType::kExecute, static_cast<std::uint16_t>(id().value),
          sim_.now());
      e.t_end = sim_.now() + cost;
      e.closure_origin = task->id.origin.value;
      e.closure_seq = task->id.seq;
      e.arg = core.ready_count();
      trace_shard_->emit(e);
    }
    if (!outbox_.empty()) {
      // Messages produced by this task leave when its execution completes.
      sim_.schedule(cost, [this, batch = std::move(outbox_)] {
        if (state() == State::kDead) return;  // crashed before the flush
        for (const auto& send : batch) send();
      });
      outbox_.clear();
    }
    schedule_step(cost);
    return;
  }
  steal_if_idle();
}

}  // namespace phish::rt
