#include "runtime/simdist/sim_cluster.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace phish::rt {

namespace {
/// The Clearinghouse occupies node 0; workers occupy nodes 1..P.
constexpr net::NodeId kClearinghouseNode{0};

net::NodeId worker_node(int index) {
  return net::NodeId{static_cast<std::uint32_t>(index + 1)};
}
}  // namespace

SimCluster::SimCluster(const TaskRegistry& registry, SimJobConfig config)
    : registry_(registry),
      config_(config),
      network_(sim_, config.net),
      timers_(sim_) {
  if (config_.participants < 1) {
    throw std::invalid_argument("SimCluster: need at least one participant");
  }
  ch_rpc_ = std::make_unique<net::RpcNode>(network_.channel(kClearinghouseNode),
                                           timers_);
  ch_rpc_->set_jitter_seed(mix64(config_.seed ^ 0xc0de'0000ULL));
  if (config_.tracer != nullptr) {
    ch_rpc_->set_trace(
        config_.tracer->shard(
            static_cast<std::uint16_t>(kClearinghouseNode.value)),
        &virtual_clock_);
  }
  clearinghouse_ = std::make_unique<Clearinghouse>(*ch_rpc_, timers_,
                                                   config_.clearinghouse);
  clearinghouse_->set_recovery_tracker(&recovery_);
  // The replica ring every worker fails over across: primary first.
  std::vector<net::NodeId> replicas{kClearinghouseNode};
  if (config_.enable_backup) {
    const net::NodeId backup_node{
        static_cast<std::uint32_t>(config_.participants + 1)};
    replicas.push_back(backup_node);
    backup_rpc_ =
        std::make_unique<net::RpcNode>(network_.channel(backup_node), timers_);
    backup_rpc_->set_jitter_seed(mix64(config_.seed ^ 0xc0de'0001ULL));
    backup_ = std::make_unique<Clearinghouse>(*backup_rpc_, timers_,
                                              config_.clearinghouse);
    backup_->set_recovery_tracker(&recovery_);
  }
  Xoshiro256 seeder(config_.seed);
  for (int i = 0; i < config_.participants; ++i) {
    if (static_cast<std::size_t>(i) < config_.worker_clusters.size()) {
      network_.set_cluster(worker_node(i), config_.worker_clusters[i]);
    }
    workers_.push_back(std::make_unique<SimWorker>(
        sim_, network_, timers_, registry_, worker_node(i), replicas,
        config_.worker, seeder.fork(i + 1).next(),
        config_.exec_order, config_.steal_order));
    workers_.back()->set_recovery_tracker(&recovery_);
    if (config_.tracer != nullptr) {
      workers_.back()->set_trace(
          config_.tracer->shard(
              static_cast<std::uint16_t>(worker_node(i).value)),
          &virtual_clock_);
    }
  }
}

void SimCluster::crash_at(int index, sim::SimTime when) {
  sim_.schedule_at(when, [this, index] { workers_.at(index)->crash(); });
}

void SimCluster::reclaim_at(int index, sim::SimTime when) {
  sim_.schedule_at(when, [this, index] {
    workers_.at(index)->reclaim_by_owner();
  });
}

void SimCluster::rejoin_at(int index, sim::SimTime when) {
  sim_.schedule_at(when, [this, index] { workers_.at(index)->rejoin(); });
}

void SimCluster::crash_primary_at(sim::SimTime when) {
  sim_.schedule_at(when, [this] { clearinghouse_->halt(); });
}

Clearinghouse& SimCluster::acting_clearinghouse() {
  if (backup_ != nullptr && backup_->acting_primary() &&
      !clearinghouse_->acting_primary()) {
    return *backup_;
  }
  return *clearinghouse_;
}

void SimCluster::apply_fault_plan(const net::FaultPlan& plan) {
  if (!plan.links.empty()) {
    fault_injector_ = std::make_unique<net::FaultInjector>(plan);
    network_.set_fault_injector(fault_injector_.get());
  }
  for (const net::NodeEvent& e : plan.events) {
    if (e.worker == net::kCoordinatorWorker) {
      // The coordinator cannot migrate or rejoin; only crash (halt) and
      // transient cuts make sense for it.
      switch (e.kind) {
        case net::NodeFaultKind::kCrash:
        case net::NodeFaultKind::kReclaim:
          crash_primary_at(e.at_ns);
          break;
        case net::NodeFaultKind::kPartition:
          sim_.schedule_at(e.at_ns,
                           [this] { network_.partition(kClearinghouseNode); });
          break;
        case net::NodeFaultKind::kHeal:
        case net::NodeFaultKind::kRestart:
          sim_.schedule_at(e.at_ns, [this] {
            network_.partition(kClearinghouseNode, false);
          });
          break;
      }
      continue;
    }
    if (e.worker < 0 || e.worker >= config_.participants) {
      throw std::invalid_argument("apply_fault_plan: worker index " +
                                  std::to_string(e.worker) + " out of range");
    }
    switch (e.kind) {
      case net::NodeFaultKind::kCrash:
        crash_at(e.worker, e.at_ns);
        break;
      case net::NodeFaultKind::kReclaim:
        reclaim_at(e.worker, e.at_ns);
        break;
      case net::NodeFaultKind::kPartition:
        sim_.schedule_at(e.at_ns, [this, w = e.worker] {
          network_.partition(worker_node(w));
        });
        break;
      case net::NodeFaultKind::kHeal:
        sim_.schedule_at(e.at_ns, [this, w = e.worker] {
          // A crashed worker stays dead; only a network cut heals.
          if (workers_.at(w)->state() != SimWorker::State::kDead) {
            network_.partition(worker_node(w), false);
          }
        });
        break;
      case net::NodeFaultKind::kRestart:
        sim_.schedule_at(e.at_ns, [this, w = e.worker] {
          // A crashed worker comes back as a fresh incarnation, and so does
          // a departed one (churn: the owner left and the workstation is
          // idle again) — including one still mid-handshake, which defers
          // the rejoin until the departure completes; a merely partitioned
          // one just gets its cut healed.
          const auto s = workers_.at(w)->state();
          if (s == SimWorker::State::kDead ||
              s == SimWorker::State::kDeparted ||
              s == SimWorker::State::kDeparting) {
            workers_.at(w)->rejoin();
          } else {
            network_.partition(worker_node(w), false);
          }
        });
        break;
    }
  }
}

Bytes JobCheckpoint::encode() const {
  Writer w;
  w.u64(taken_at);
  w.u32(static_cast<std::uint32_t>(worker_states.size()));
  for (const Bytes& state : worker_states) {
    w.blob(state.data(), state.size());
  }
  return w.take();
}

std::optional<JobCheckpoint> JobCheckpoint::decode(const Bytes& bytes) {
  Reader r(bytes);
  JobCheckpoint c;
  c.taken_at = r.u64();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 16)) return std::nullopt;
  for (std::uint32_t i = 0; i < n; ++i) c.worker_states.push_back(r.blob());
  if (!r.done()) return std::nullopt;
  return c;
}

SimJobResult SimCluster::run(TaskId root, std::vector<Value> args) {
  if (ran_) throw std::logic_error("SimCluster::run may only be called once");
  ran_ = true;
  workers_[0]->set_root(root, std::move(args));
  return drive();
}

SimJobResult SimCluster::resume(const JobCheckpoint& checkpoint) {
  if (ran_) throw std::logic_error("SimCluster::run may only be called once");
  if (checkpoint.worker_states.size() !=
      static_cast<std::size_t>(config_.participants)) {
    throw std::invalid_argument(
        "SimCluster::resume: checkpoint has " +
        std::to_string(checkpoint.worker_states.size()) +
        " worker states but this cluster has " +
        std::to_string(config_.participants) + " participants");
  }
  ran_ = true;
  for (int i = 0; i < config_.participants; ++i) {
    workers_[i]->set_restore_state(
        checkpoint.worker_states[static_cast<std::size_t>(i)]);
  }
  return drive();
}

void SimCluster::request_checkpoint_at(sim::SimTime when) {
  sim_.schedule_at(when, [this] { try_checkpoint(); });
}

void SimCluster::try_checkpoint() {
  if (checkpoint_.has_value()) return;           // already have one
  if (clearinghouse_->result().has_value()) return;  // job over: pointless
  bool quiescent = network_.messages_in_flight() == 0;
  for (const auto& w : workers_) {
    if (w->terminated() || w->state() != SimWorker::State::kActive ||
        !w->checkpoint_quiescent()) {
      quiescent = false;
      break;
    }
  }
  if (!quiescent) {
    // Dataflow (or a worker's buffered sends) is in flight: a snapshot now
    // would miss it.  Try again shortly; quiescent instants are frequent
    // because sends flush at task boundaries.
    sim_.schedule(sim::kMillisecond, [this] { try_checkpoint(); });
    return;
  }
  JobCheckpoint checkpoint;
  checkpoint.taken_at = sim_.now();
  for (const auto& w : workers_) {
    checkpoint.worker_states.push_back(w->export_core_state());
  }
  checkpoint_ = std::move(checkpoint);
  PHISH_LOG(kInfo) << "checkpoint taken at t="
                   << sim::to_seconds(sim_.now()) << "s";
}

SimJobResult SimCluster::drive() {
  clearinghouse_->start();
  if (backup_ != nullptr) {
    backup_->start_standby(kClearinghouseNode);
    clearinghouse_->set_standby(backup_rpc_->id());
  }
  sim::SimTime result_time = 0;
  const auto record_result = [this, &result_time](const Value&) {
    if (result_time == 0) result_time = sim_.now();
  };
  clearinghouse_->set_on_result(record_result);
  if (backup_ != nullptr) backup_->set_on_result(record_result);
  const auto job_result = [this]() -> std::optional<Value> {
    auto v = clearinghouse_->result();
    if (!v && backup_ != nullptr) v = backup_->result();
    return v;
  };

  Xoshiro256 start_rng(mix64(config_.seed ^ 0x57a7ULL));
  sim::SimTime first_start = ~sim::SimTime{0};
  // Every other worker starts within this much of worker 0 ("as close to
  // the same time as possible").
  constexpr sim::SimTime kStartJitter = 20 * sim::kMillisecond;
  for (int i = 0; i < config_.participants; ++i) {
    // Worker 0 carries the root and starts first: it models the submitting
    // workstation, whose worker exists before any other joins the job.
    const sim::SimTime when = i > 0 ? 1 + start_rng.below(kStartJitter) : 0;
    first_start = std::min(first_start, when);
    sim_.schedule_at(when, [this, i] { workers_[i]->start(); });
  }

  // Drive the simulation until the job completes and every worker has wound
  // down (or the time budget expires).
  constexpr sim::SimTime kSlice = 100 * sim::kMillisecond;
  for (;;) {
    sim_.run_until(sim_.now() + kSlice);
    if (sim_.now() > config_.max_sim_time) {
      // Say where the job is stuck: every worker's protocol state and the
      // acting coordinator's view and migration ledger.
      std::string stall =
          "SimCluster: job did not complete within max_sim_time (simulated " +
          std::to_string(sim::to_seconds(sim_.now())) + " s)";
      for (const auto& w : workers_) stall += "\n  " + w->describe();
      stall += "\n  " + acting_clearinghouse().describe();
      throw std::runtime_error(stall);
    }
    if (!job_result().has_value()) continue;
    bool all_done = true;
    for (const auto& w : workers_) {
      if (!w->terminated()) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    // Give shutdown broadcasts a grace period, then force any stragglers
    // (e.g. a worker that registered after the result arrived).
    if (sim_.now() > result_time + 5 * sim::kSecond) {
      for (auto& w : workers_) {
        if (!w->terminated()) w->reclaim_by_owner();
      }
    }
  }
  clearinghouse_->stop();
  if (backup_ != nullptr) backup_->stop();
  // Drain residual traffic (stats reports, unregisters), then detach the
  // callbacks that capture this frame's result_time.
  sim_.run_until(sim_.now() + sim::kSecond);
  clearinghouse_->set_on_result({});
  if (backup_ != nullptr) backup_->set_on_result({});

  SimJobResult result;
  const auto value = job_result();
  if (!value) throw std::runtime_error("SimCluster: no result recorded");
  result.value = *value;
  result.makespan_seconds = sim::to_seconds(result_time - first_start);
  StatsSnapshot snap =
      collect_stats(workers_, [](const auto& w) { return w->stats(); });
  result.aggregate = std::move(snap.aggregate);
  result.per_worker = std::move(snap.per_worker);
  for (const auto& w : workers_) {
    result.participant_seconds.push_back(sim::to_seconds(w->lifetime()));
    result.messages_sent += w->channel_stats().messages_sent;
  }
  double total = 0.0;
  for (double t : result.participant_seconds) total += t;
  result.average_participant_seconds =
      total / static_cast<double>(result.participant_seconds.size());
  result.inter_cluster_messages = network_.inter_cluster_messages();
  result.events_fired = sim_.events_fired();
  result.io_log = acting_clearinghouse().io_log();
  return result;
}

SimJobResult run_sim_job(const TaskRegistry& registry, TaskId root,
                         std::vector<Value> args, SimJobConfig config) {
  SimCluster cluster(registry, config);
  return cluster.run(root, std::move(args));
}

}  // namespace phish::rt
