#include "runtime/udp/udp_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>

#include "util/timer.hpp"

namespace phish::rt {
namespace {

const obs::SteadyClock& steady_clock() {
  static const obs::SteadyClock clock;
  return clock;
}

}  // namespace

/// The driver's only lock: other threads hand work to the worker's thread
/// here.  Shared with the closures the receiver and timer threads hold, so
/// a post after the worker is gone finds a closed box instead of freed
/// memory.
class UdpWorker::Mailbox {
 public:
  /// Queue `fn` for the worker thread; false when no thread runs the node.
  bool post(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!open_) return false;
      items_.push_back(std::move(fn));
      pending_.store(true, std::memory_order_release);
    }
    cv_.notify_one();
    return true;
  }

  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
  }

  /// Cheap check for the task loop: something is waiting to be run.
  bool pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Worker thread: everything posted so far, waiting up to `wait_ns` for
  /// the first item.  With `close` (the thread is exiting) and nothing
  /// left, close the box: every later post fails, and its caller runs the
  /// work itself.
  std::vector<std::function<void()>> take(std::uint64_t wait_ns,
                                          bool close = false) {
    std::vector<std::function<void()>> out;
    if (wait_ns == 0 && !close && !pending()) return out;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::nanoseconds(wait_ns),
                 [this] { return !items_.empty(); });
    if (close && items_.empty()) open_ = false;
    out.swap(items_);
    pending_.store(false, std::memory_order_release);
    return out;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> items_;
  bool open_ = false;
  std::atomic<bool> pending_{false};
};

/// The node's channel: sends go straight out; each datagram the socket's
/// receiver thread reads is posted to the worker thread.
class UdpWorker::PostingChannel final : public net::Channel {
 public:
  PostingChannel(net::Channel& inner, std::shared_ptr<Mailbox> mailbox)
      : inner_(inner), mailbox_(std::move(mailbox)) {}

  net::NodeId id() const override { return inner_.id(); }
  void send(net::NodeId dst, std::uint16_t type, Bytes payload) override {
    inner_.send(dst, type, std::move(payload));
  }
  void set_receiver(Receiver receiver) override {
    if (!receiver) {
      inner_.set_receiver({});
      return;
    }
    auto deliver = std::make_shared<Receiver>(std::move(receiver));
    inner_.set_receiver([mailbox = mailbox_, deliver](net::Message&& m) {
      // Dropped when no thread runs the node, as by a host that is down.
      mailbox->post([deliver, m = std::move(m)]() mutable {
        (*deliver)(std::move(m));
      });
    });
  }
  const net::ChannelStats& stats() const override { return inner_.stats(); }

 private:
  net::Channel& inner_;
  const std::shared_ptr<Mailbox> mailbox_;
};

/// The node's timers: the shared timer thread keeps the clock; each expiry
/// is posted to the worker thread.
class UdpWorker::PostingTimers final : public net::TimerService {
 public:
  PostingTimers(net::TimerService& inner, std::shared_ptr<Mailbox> mailbox)
      : inner_(inner), mailbox_(std::move(mailbox)) {}

  net::TimerToken schedule(std::uint64_t delay_ns,
                           std::function<void()> fn) override {
    return inner_.schedule(delay_ns,
                           [mailbox = mailbox_, fn = std::move(fn)] {
                             mailbox->post(fn);
                           });
  }
  void cancel(net::TimerToken token) override { inner_.cancel(token); }
  std::uint64_t now_ns() const override { return inner_.now_ns(); }

 private:
  net::TimerService& inner_;
  const std::shared_ptr<Mailbox> mailbox_;
};

namespace {

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

UdpWorker::UdpWorker(net::UdpNetwork& network, net::TimerService& timers,
                     const TaskRegistry& registry, net::NodeId me,
                     std::vector<net::NodeId> clearinghouse,
                     const UdpJobConfig& config, std::uint64_t seed)
    : me_(me),
      udp_(network.channel(me)),
      mailbox_(std::make_shared<Mailbox>()),
      faulty_(config.fault_plan ? std::make_unique<net::FaultyChannel>(
                                      udp_, *config.fault_plan)
                                : nullptr),
      channel_(std::make_unique<PostingChannel>(
          faulty_ ? static_cast<net::Channel&>(*faulty_)
                  : static_cast<net::Channel&>(udp_),
          mailbox_)),
      timers_(std::make_unique<PostingTimers>(timers, mailbox_)),
      node_(*channel_, *timers_, registry, me, std::move(clearinghouse),
            node_params(config), seed, config.exec_order, config.steal_order,
            *this) {
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

void UdpWorker::start() {
  mailbox_->open();
  thread_ = std::thread([this] { thread_main(); });
}

void UdpWorker::post_or_run(std::function<void()> fn) const {
  if (!mailbox_->post(fn)) fn();
}

template <typename F>
auto UdpWorker::on_thread(F fn, std::chrono::milliseconds patience) const
    -> std::optional<decltype(fn())> {
  auto reply = std::make_shared<std::promise<decltype(fn())>>();
  auto result = reply->get_future();
  if (!mailbox_->post([fn, reply] { reply->set_value(fn()); })) return fn();
  if (result.wait_for(patience) != std::future_status::ready) {
    return std::nullopt;
  }
  return result.get();
}

void UdpWorker::request_stop() {
  post_or_run([this] {
    node_.finish_job();
    stop_ = true;
  });
}

void UdpWorker::join() {
  if (thread_.joinable()) thread_.join();
}

std::uint32_t UdpWorker::incarnation() const {
  return *on_thread([this] { return node_.incarnation(); });
}

WorkerStats UdpWorker::stats_snapshot() const {
  return *on_thread([this] { return node_.stats(); });
}

std::string UdpWorker::describe() const {
  // Bounded: a thread deep in one long task cannot answer, and a stall dump
  // must not become a second stall.
  return on_thread([this] { return node_.describe(); },
                   std::chrono::seconds(1))
      .value_or(net::to_string(me_) + ": no reply within 1 s (in a task)");
}

void UdpWorker::schedule_step(std::uint64_t delay) {
  const std::uint64_t when = monotonic_ns() + delay;
  if (step_due_ && step_at_ <= when) return;  // an earlier step is already set
  step_due_ = true;
  step_at_ = when;
}

void UdpWorker::thread_main() {
  // With no step due, the thread sleeps until something is posted.
  constexpr std::uint64_t kIdleWaitNs = 1'000'000'000;
  node_.start();
  while (!stop_) {
    std::uint64_t wait_ns = kIdleWaitNs;
    if (step_due_) {
      const std::uint64_t now = monotonic_ns();
      wait_ns = step_at_ > now ? step_at_ - now : 0;
    }
    for (auto& item : mailbox_->take(wait_ns)) item();
    if (!stop_ && step_due_ && monotonic_ns() >= step_at_) {
      step_due_ = false;
      step();
    }
  }
  for (;;) {
    auto rest = mailbox_->take(0, /*close=*/true);
    if (rest.empty()) break;
    for (auto& item : rest) item();
  }
}

void UdpWorker::step() {
  // A thief's steal request waits in the mailbox while a batch runs, so the
  // batch ends as soon as anything is posted.
  constexpr int kBatch = 64;
  if (node_.state() != WorkerNode::State::kActive) return;
  WorkerCore& core = node_.core();
  int ran = 0;
  while (ran < kBatch) {
    auto task = core.pop_for_execution();
    if (!task) break;
    core.execute(*task);
    ++ran;
    if (mailbox_->pending()) break;
  }
  if (ran == 0) {
    node_.steal_if_idle();
    return;
  }
  node_.note_task_ran();
  schedule_step(0);
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
  net::ThreadTimerService timers;

  const net::NodeId ch_node{0};
  net::RpcNode ch_rpc(network.channel(ch_node), timers);
  ch_rpc.set_jitter_seed(mix64(config_.seed ^ 0xc0de'0000ULL));
  Clearinghouse clearinghouse(ch_rpc, timers, config_.clearinghouse);
  RecoveryTracker recovery;
  clearinghouse.set_recovery_tracker(&recovery);

  // The replica ring every worker fails over across: primary first.
  std::vector<net::NodeId> replicas{ch_node};
  std::unique_ptr<net::RpcNode> backup_rpc;
  std::unique_ptr<Clearinghouse> backup;
  if (config_.enable_backup) {
    const net::NodeId backup_node{
        static_cast<std::uint32_t>(config_.workers + 1)};
    replicas.push_back(backup_node);
    backup_rpc =
        std::make_unique<net::RpcNode>(network.channel(backup_node), timers);
    backup_rpc->set_jitter_seed(mix64(config_.seed ^ 0xc0de'0001ULL));
    backup = std::make_unique<Clearinghouse>(*backup_rpc, timers,
                                             config_.clearinghouse);
    backup->set_recovery_tracker(&recovery);
  }

  std::mutex result_mutex;
  std::condition_variable result_cv;
  std::optional<Value> result_value;
  const auto record_result = [&](const Value& v) {
    std::lock_guard<std::mutex> lock(result_mutex);
    if (!result_value) result_value = v;
    result_cv.notify_all();
  };
  clearinghouse.set_on_result(record_result);
  clearinghouse.start();
  if (backup != nullptr) {
    backup->set_on_result(record_result);
    backup->start_standby(ch_node);
    clearinghouse.set_standby(backup_rpc->id());
  }

  std::vector<std::unique_ptr<UdpWorker>> workers;
  Xoshiro256 seeder(config_.seed);
  for (int i = 0; i < config_.workers; ++i) {
    workers.push_back(std::make_unique<UdpWorker>(
        network, timers, registry_,
        net::NodeId{static_cast<std::uint32_t>(i + 1)}, replicas, config_,
        seeder.next()));
    workers.back()->set_recovery_tracker(&recovery);
  }
  workers[0]->set_root(root, std::move(args));

  Stopwatch watch;
  for (auto& w : workers) w->start();

  // Scripted chaos, driven from a dedicated thread so the main thread stays
  // parked on the result.  Every worker event only posts to that worker's
  // mailbox.
  bool over = false;  // guarded by result_mutex: the job ended either way
  std::thread chaos;
  if (!config_.node_events.empty()) {
    chaos = std::thread([&] {
      std::vector<net::NodeEvent> events = config_.node_events;
      std::stable_sort(events.begin(), events.end(),
                       [](const net::NodeEvent& a, const net::NodeEvent& b) {
                         return a.at_ns < b.at_ns;
                       });
      const auto t0 = std::chrono::steady_clock::now();
      for (const net::NodeEvent& e : events) {
        {
          std::unique_lock<std::mutex> lock(result_mutex);
          if (result_cv.wait_until(lock,
                                   t0 + std::chrono::nanoseconds(e.at_ns),
                                   [&] { return over; })) {
            return;
          }
        }
        if (e.worker == net::kCoordinatorWorker) {
          if (e.kind == net::NodeFaultKind::kCrash) clearinghouse.halt();
          continue;
        }
        // Worker 0 carries the root and is immune, as everywhere else.
        if (e.worker <= 0 || e.worker >= static_cast<int>(workers.size())) {
          continue;
        }
        UdpWorker& w = *workers[static_cast<std::size_t>(e.worker)];
        switch (e.kind) {
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
      }
    });
  }

  bool finished;
  {
    std::unique_lock<std::mutex> lock(result_mutex);
    finished = result_cv.wait_for(
        lock, std::chrono::duration<double>(config_.timeout_seconds),
        [&] { return result_value.has_value(); });
    over = true;
  }
  result_cv.notify_all();
  const double elapsed = watch.elapsed_seconds();
  std::string stall;
  if (!finished) {
    // Say where the job is stuck, asked of each worker's own thread.
    for (auto& w : workers) stall += "\n  " + w->describe();
  }

  if (chaos.joinable()) chaos.join();
  // Wind everything down (the shutdown broadcast already went out if the job
  // finished; make it idempotent either way).
  for (auto& w : workers) w->request_stop();
  for (auto& w : workers) w->join();
  clearinghouse.stop();
  if (backup != nullptr) backup->stop();

  if (!finished) {
    throw std::runtime_error("udp runtime: job timed out after " +
                             std::to_string(config_.timeout_seconds) + " s" +
                             stall);
  }

  UdpJobResult result;
  {
    std::lock_guard<std::mutex> lock(result_mutex);
    result.value = std::move(*result_value);
  }
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
