#include "runtime/udp/udp_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <mutex>

#include "util/timer.hpp"

namespace phish::rt {
namespace {

const obs::SteadyClock& steady_clock() {
  static const obs::SteadyClock clock;
  return clock;
}

/// Pause between failed steal attempts on real sockets.
constexpr std::uint64_t kStealRetryNs = 2'000'000;  // 2 ms
/// Registration retries forever, with exponential backoff (plus seeded
/// jitter) between attempts so a mass rejoin does not storm the coordinator.
constexpr std::uint64_t kRegisterBackoffNs = 50'000'000;      // 50 ms
constexpr std::uint64_t kRegisterBackoffMaxNs = 800'000'000;  // 800 ms

NodeParams node_params(const UdpJobConfig& config) {
  NodeParams p;
  p.steal_retry_delay = kStealRetryNs;
  p.max_failed_steals = config.max_failed_steals;
  p.heartbeat_period = config.heartbeat_period_ns;
  p.rpc_policy = config.rpc_policy;
  p.register_backoff = kRegisterBackoffNs;
  p.register_backoff_max = kRegisterBackoffMaxNs;
  p.steal_batch = config.steal_batch;
  return p;
}

}  // namespace

UdpWorker::UdpWorker(net::UdpNetwork& network, const TaskRegistry& registry,
                     net::NodeId me, std::vector<net::NodeId> clearinghouse,
                     const UdpJobConfig& config, std::uint64_t seed)
    : me_(me),
      udp_(network.channel(me)),
      loop_(udp_.loop()),
      faulty_(config.fault_plan ? std::make_unique<net::FaultyChannel>(
                                      udp_, *config.fault_plan)
                                : nullptr),
      node_(faulty_ ? static_cast<net::Channel&>(*faulty_)
                    : static_cast<net::Channel&>(udp_),
            loop_, registry, me, std::move(clearinghouse), node_params(config),
            seed, config.exec_order, config.steal_order, *this) {
  if (config.tracer != nullptr) {
    node_.set_trace(config.tracer->shard(static_cast<std::uint16_t>(me.value)),
                    &steady_clock());
  }
}

UdpWorker::~UdpWorker() {
  request_stop();
  join();
  node_.rpc().shutdown();  // while the fields completions touch are alive
}

std::uint32_t UdpWorker::incarnation() const {
  return loop_.submit([this] { return node_.incarnation(); }).get();
}

WorkerStats UdpWorker::stats_snapshot() const {
  return loop_.submit([this] { return node_.stats(); }).get();
}

std::string UdpWorker::describe() const {
  // Bounded: a loop deep in one long task cannot answer, and a stall dump
  // must not become a second stall.
  auto line = loop_.submit([this] { return node_.describe(); });
  if (line.wait_for(std::chrono::seconds(1)) != std::future_status::ready) {
    return net::to_string(me_) + ": no reply within 1 s (in a task)";
  }
  return line.get();
}

void UdpWorker::schedule_step(std::uint64_t delay) {
  const std::uint64_t when = loop_.now_ns() + delay;
  if (step_timer_.valid()) {
    if (step_at_ <= when) return;  // an earlier step is already set
    loop_.cancel(step_timer_);
  }
  step_at_ = when;
  step_timer_ = loop_.schedule(delay, [this] {
    step_timer_ = net::TimerToken{};
    step();
  });
}

void UdpWorker::cancel_step() {
  loop_.cancel(step_timer_);  // exact: the node calls this on the loop
  step_timer_ = net::TimerToken{};
}

void UdpWorker::step() {
  // Run ready tasks until the loop has something to deliver.  Checking
  // costs a poll(2), so the worker checks once kPollGapNs of task time has
  // passed since its last check: a thief's steal request waits at most
  // about one task here, and short tasks do not each pay a syscall.  The
  // clock is read every `stride` tasks: the stride doubles while reads find
  // the gap not yet passed and drops to 1 after each check, so long tasks
  // are timed one by one and short ones share a read.
  constexpr std::uint64_t kPollGapNs = 20'000;
  constexpr int kMaxClockStride = 16;
  if (node_.state() != WorkerNode::State::kActive) return;
  WorkerCore& core = node_.core();
  std::uint64_t polled_at = loop_.now_ns();
  int stride = 1;
  int until_clock = 1;
  bool ran = false;
  while (auto task = core.pop_for_execution()) {
    core.execute(*task);
    ran = true;
    if (--until_clock > 0) continue;
    const std::uint64_t now = loop_.now_ns();
    if (now - polled_at < kPollGapNs) {
      stride = std::min(2 * stride, kMaxClockStride);
    } else {
      if (loop_.input_ready()) break;
      polled_at = now;
      stride = 1;
    }
    until_clock = stride;
  }
  if (!ran) {
    node_.steal_if_idle();
    return;
  }
  node_.note_task_ran();
  schedule_step(0);
}

UdpClearinghouse::UdpClearinghouse(net::UdpNetwork& network, net::NodeId id,
                                   const ClearinghouseConfig& config,
                                   std::uint64_t jitter_seed)
    : loop_(network.channel(id).loop()),
      rpc_(network.channel(id), loop_),
      clearinghouse_(rpc_, loop_, config) {
  rpc_.set_jitter_seed(jitter_seed);
}

// ---- UdpJob. ----

UdpJob::UdpJob(const TaskRegistry& registry, UdpJobConfig config)
    : registry_(registry), config_(config) {
  if (config_.workers < 1) {
    throw std::invalid_argument("udp runtime: need at least one worker");
  }
}

UdpJobResult UdpJob::run(TaskId root, std::vector<Value> args) {
  net::UdpNetwork network(config_.net);
  RecoveryTracker recovery;
  // Either replica may report the result; the first report counts.
  std::promise<Value> result_promise;
  std::future<Value> result_value = result_promise.get_future();
  std::once_flag result_once;
  const auto record_result = [&](const Value& v) {
    std::call_once(result_once, [&] { result_promise.set_value(v); });
  };

  // The replica ring every worker fails over across: primary first.
  const net::NodeId ch_node{0};
  std::vector<net::NodeId> replicas{ch_node};
  UdpClearinghouse primary(network, ch_node, config_.clearinghouse,
                           mix64(config_.seed ^ 0xc0de'0000ULL));
  if (config_.tracer != nullptr) {
    primary.set_trace(config_.tracer->shard(0), &steady_clock());
  }
  std::unique_ptr<UdpClearinghouse> backup;
  if (config_.enable_backup) {
    const net::NodeId backup_node{
        static_cast<std::uint32_t>(config_.workers + 1)};
    replicas.push_back(backup_node);
    backup = std::make_unique<UdpClearinghouse>(
        network, backup_node, config_.clearinghouse,
        mix64(config_.seed ^ 0xc0de'0001ULL));
    backup->run([&](Clearinghouse& ch) {
      ch.set_recovery_tracker(&recovery);
      ch.set_on_result(record_result);
      ch.start_standby(ch_node);
    });
  }
  primary.run([&](Clearinghouse& ch) {
    ch.set_recovery_tracker(&recovery);
    ch.set_on_result(record_result);
    ch.start();
    if (backup != nullptr) ch.set_standby(backup->id());
  });

  std::vector<std::unique_ptr<UdpWorker>> workers;
  Xoshiro256 seeder(config_.seed);
  for (int i = 0; i < config_.workers; ++i) {
    workers.push_back(std::make_unique<UdpWorker>(
        network, registry_, net::NodeId{static_cast<std::uint32_t>(i + 1)},
        replicas, config_, seeder.next()));
    workers.back()->set_recovery_tracker(&recovery);
  }
  workers[0]->set_root(root, std::move(args));

  Stopwatch watch;
  for (auto& w : workers) w->start();

  // Scripted chaos: each event is a timer on its node's loop, so none fires
  // once the job has wound down.
  for (const net::NodeEvent& e : config_.node_events) {
    if (e.worker == net::kCoordinatorWorker) {
      if (e.kind == net::NodeFaultKind::kCrash) {
        primary.loop().schedule(e.at_ns, [&primary] {
          primary.run([](Clearinghouse& ch) { ch.halt(); });
        });
      }
      continue;
    }
    // Worker 0 carries the root and is immune, as everywhere else.
    if (e.worker <= 0 || e.worker >= static_cast<int>(workers.size())) {
      continue;
    }
    UdpWorker& w = *workers[static_cast<std::size_t>(e.worker)];
    w.loop().schedule(e.at_ns, [&w, kind = e.kind] {
      switch (kind) {
        case net::NodeFaultKind::kCrash:
          w.kill();
          break;
        case net::NodeFaultKind::kReclaim:
          // Owner return: graceful departure through the acked
          // migration-ledger handshake (churn parity with simdist).
          w.evict();
          break;
        case net::NodeFaultKind::kRestart:
          w.rejoin();
          break;
        case net::NodeFaultKind::kPartition:
        case net::NodeFaultKind::kHeal:
          break;  // no scriptable cut on real sockets
      }
    });
  }

  const bool finished =
      result_value.wait_for(std::chrono::duration<double>(
          config_.timeout_seconds)) == std::future_status::ready;
  const double elapsed = watch.elapsed_seconds();
  std::string stall;
  if (!finished) {
    // Say where the job is stuck, asked of each node's own loop.
    for (auto& w : workers) stall += "\n  " + w->describe();
    stall += "\n  " + primary.run([](Clearinghouse& ch) {
      return ch.describe();
    });
  }

  // Wind the workers down (the shutdown broadcast already went out if the
  // job finished; make it idempotent either way), then stop their loops.
  for (auto& w : workers) w->request_stop();
  for (auto& w : workers) w->join();

  if (!finished) {
    throw std::runtime_error("udp runtime: job timed out after " +
                             std::to_string(config_.timeout_seconds) + " s" +
                             stall);
  }

  UdpJobResult result;
  result.value = result_value.get();
  result.elapsed_seconds = elapsed;
  StatsSnapshot snap = collect_stats(
      workers, [](const auto& w) { return w->stats_snapshot(); });
  result.aggregate = std::move(snap.aggregate);
  result.per_worker = std::move(snap.per_worker);
  for (auto& w : workers) {
    result.messages_sent += w->channel_stats().messages_sent;
  }
  result.recovery = recovery.snapshot();
  return result;
}

UdpJobResult UdpJob::run(const std::string& root, std::vector<Value> args) {
  return run(registry_.id_of(root), std::move(args));
}

}  // namespace phish::rt
