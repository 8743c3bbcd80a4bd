#include "runtime/threads/threads_runtime.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace phish::rt {
namespace {

const obs::SteadyClock& steady_clock() {
  static const obs::SteadyClock clock;
  return clock;
}

int make_poll_socket() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("threads runtime: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // ephemeral
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw std::runtime_error("threads runtime: bind() failed");
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

}  // namespace

ThreadsRuntime::ThreadsRuntime(const TaskRegistry& registry,
                               ThreadsConfig config)
    : registry_(registry),
      config_(config),
      steal_latency_(obs::Registry::global().histogram("steal.latency_ns")) {
  if (config_.workers < 1) {
    throw std::invalid_argument("threads runtime: need at least one worker");
  }
  if (config_.poll_period < 1 || config_.steal_batch < 1) {
    throw std::invalid_argument(
        "threads runtime: poll_period and steal_batch must be >= 1");
  }
  // Lock-free Chase–Lev steals need more than one worker (a solo worker
  // would pay the deque's fences for nothing) and the paper's standard
  // orders (the ablation orders need the guarded ring).
  use_lockfree_ = config_.workers > 1 &&
                  config_.exec_order == ExecOrder::kLifo &&
                  config_.steal_order == StealOrder::kFifo;
  workers_.reserve(config_.workers);
  for (int i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->rng = Xoshiro256(mix64(config_.seed ^ static_cast<std::uint64_t>(i)));
    if (config_.phish_overheads) w->poll_fd = make_poll_socket();
    workers_.push_back(std::move(w));
  }
  threads_.reserve(config_.workers);
  for (int i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] {
      std::uint64_t seen_generation = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(pool_mutex_);
          pool_cv_.wait(lock, [&] {
            return shutdown_ || job_generation_ != seen_generation;
          });
          if (shutdown_) return;
          seen_generation = job_generation_;
        }
        worker_loop(i);
        if (idle_workers_.fetch_add(1) + 1 == config_.workers) {
          pool_cv_.notify_all();  // last worker parked; job fully quiesced
        }
      }
    });
  }
}

ThreadsRuntime::~ThreadsRuntime() {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& w : workers_) {
    if (w->poll_fd >= 0) ::close(w->poll_fd);
  }
}

ThreadsRunResult ThreadsRuntime::run(TaskId root, std::vector<Value> args) {
  if (job_active_.exchange(true)) {
    throw std::logic_error("threads runtime: run() is not reentrant");
  }
  // Fresh cores per job.
  for (int i = 0; i < config_.workers; ++i) {
    Worker& w = *workers_[i];
    WorkerCore::Hooks hooks;
    hooks.send_remote = [this, i](const ContRef& cont, Value value) {
      deliver(cont, std::move(value), i);
    };
    CoreOptions opts;
    opts.exec_order = config_.exec_order;
    opts.steal_order = config_.steal_order;
    opts.lockfree_deque = use_lockfree_;
    std::lock_guard<std::mutex> lock(w.core_mutex);
    w.core = std::make_unique<WorkerCore>(net::NodeId{
                                              static_cast<std::uint32_t>(i)},
                                          registry_, std::move(hooks), opts);
    if (config_.tracer != nullptr) {
      w.core->set_trace(config_.tracer->shard(static_cast<std::uint16_t>(i)),
                        &steady_clock());
    }
    std::lock_guard<std::mutex> inbox_lock(w.inbox_mutex);
    w.inbox.clear();
  }
  result_.reset();
  done_.store(false);
  idle_workers_.store(0);
  in_transit_.store(0);
  {
    std::lock_guard<std::mutex> lock(workers_[0]->core_mutex);
    workers_[0]->core->spawn(root, std::move(args), root_continuation(), 0);
  }

  Stopwatch watch;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    ++job_generation_;
  }
  pool_cv_.notify_all();

  // Wait for completion; check for global quiescence without a result (a
  // malformed task graph) so callers get an exception instead of a hang.
  {
    std::unique_lock<std::mutex> lock(pool_mutex_);
    while (!pool_cv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
      return idle_workers_.load() == config_.workers;
    })) {
      if (!done_.load() && quiescent_without_result()) {
        done_.store(true);  // release the workers
        pool_cv_.wait(lock, [&] {
          return idle_workers_.load() == config_.workers;
        });
        job_active_.store(false);
        throw std::runtime_error(
            "threads runtime: task graph quiesced without producing a "
            "result (missing send to continuation?)");
      }
    }
  }

  ThreadsRunResult result;
  result.elapsed_seconds = watch.elapsed_seconds();
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (!result_) {
      job_active_.store(false);
      throw std::runtime_error("threads runtime: no result recorded");
    }
    result.value = std::move(*result_);
  }
  StatsSnapshot snap = collect_stats(workers_, [](const auto& w) {
    std::lock_guard<std::mutex> lock(w->core_mutex);
    // Fold any not-yet-reclaimed victim-side steal accounting (lock-free
    // mode) so per-worker stats balance; harmless no-op otherwise.
    w->core->reclaim_stolen_slots();
    return w->core->stats();
  });
  result.aggregate = std::move(snap.aggregate);
  result.per_worker = std::move(snap.per_worker);
  job_active_.store(false);
  return result;
}

ThreadsRunResult ThreadsRuntime::run(const std::string& root,
                                     std::vector<Value> args) {
  return run(registry_.id_of(root), std::move(args));
}

bool ThreadsRuntime::quiescent_without_result() {
  // Take every core lock, then every inbox lock (global lock order), so the
  // check sees a consistent snapshot: no worker can be mid-execution or
  // mid-delivery while we hold its locks.
  std::vector<std::unique_lock<std::mutex>> core_locks;
  core_locks.reserve(workers_.size());
  for (auto& w : workers_) core_locks.emplace_back(w->core_mutex);
  std::vector<std::unique_lock<std::mutex>> inbox_locks;
  inbox_locks.reserve(workers_.size());
  for (auto& w : workers_) inbox_locks.emplace_back(w->inbox_mutex);

  if (done_.load()) return false;
  for (auto& w : workers_) {
    if (!w->core || w->core->has_ready() || !w->inbox.empty()) return false;
  }
  // in_transit_ is checked AFTER the deque scan: a lock-free thief does not
  // take the victim's core lock, so it can CAS a task out of a deque we have
  // not scanned yet — but it increments in_transit_ before that CAS and can
  // only decrement after install (which needs its own core lock, held by us),
  // so the task is visible either in a deque or in this counter.
  return in_transit_.load() == 0;
}

void ThreadsRuntime::worker_loop(int index) {
  Worker& w = *workers_[index];
  int unproductive_rounds = 0;
  int tasks_since_poll = 0;
  // A solo worker has no thieves to yield the lock to, so it can run much
  // longer batches per lock acquisition.  It also cannot receive inbox
  // messages mid-job — deliver() only enqueues when a send crosses workers —
  // so the per-task inbox check is dead work and is skipped (the per-batch
  // drain stays, keeping the loop shape uniform).
  const bool solo = config_.workers == 1;
  const int exec_batch = solo ? 256 : 8;
  // Hoist per-task loop inputs into locals: execute() ends in an opaque
  // indirect call, so the compiler must otherwise reload every `config_`
  // field from memory after each task.  At fib grain those reloads cost more
  // than the modeled obligation itself (which is one relaxed load), so
  // leaving them in would overstate Phish's overhead.
  const bool phish = config_.phish_overheads;
  const int poll_period = config_.poll_period;
  const int poll_fd = w.poll_fd;
  while (!done_.load(std::memory_order_acquire)) {
    bool progressed = false;
    bool out_of_local_work = false;
    {
      // Execute a bounded batch per lock acquisition so thieves blocked on
      // this core's mutex get a window at the deque between batches.
      std::lock_guard<std::mutex> lock(w.core_mutex);
      progressed |= drain_inbox(w);
      // Return pool slots thieves CAS-stole since the last batch (lock-free
      // mode; cheap flag check otherwise a no-op).
      if (use_lockfree_ && w.core->has_parked_slots()) {
        w.core->reclaim_stolen_slots();
      }
      WorkerCore& core = *w.core;
      int executed = 0;
      for (; executed < exec_batch; ++executed) {
        auto task = core.pop_for_execution();
        if (!task) {
          out_of_local_work = true;
          break;
        }
        core.execute(*task);
        if (phish) {
          // Phish's per-task obligations: a dynamic-membership check on
          // every task, and a split-phase network poll (a real non-blocking
          // syscall) amortized over poll_period tasks.
          (void)membership_epoch_.load(std::memory_order_relaxed);
          if (++tasks_since_poll >= poll_period) {
            tasks_since_poll = 0;
            std::uint8_t buf[64];
            (void)::recv(poll_fd, buf, sizeof buf, 0);  // expected: EAGAIN
          }
        }
        if (!solo) drain_inbox(w);
      }
      if (executed != 0) progressed = true;
    }
    // done_ is checked once per batch, not per task: the acquire load is on
    // the hot path, and a batch is only tens of microseconds long.
    if (done_.load(std::memory_order_acquire)) return;
    // Become a thief only when the local ready list is empty (idle-initiated:
    // idle workers search out work; busy workers never shed it).
    if (out_of_local_work && config_.workers > 1 && try_steal_for(index)) {
      progressed = true;
    }

    if (progressed) {
      unproductive_rounds = 0;
    } else if (++unproductive_rounds > config_.spin_rounds_before_yield) {
      // Nap briefly: bounded because deliveries are polled, not signalled.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

bool ThreadsRuntime::drain_inbox(Worker& w) {
  // Fast path: no message has been pushed since the last drain.  The flag is
  // published under inbox_mutex, so a true value is always eventually seen;
  // a stale false just defers the drain to the next loop iteration.
  if (!w.inbox_nonempty.load(std::memory_order_acquire)) return false;
  std::vector<InboxMessage> batch;
  {
    std::lock_guard<std::mutex> lock(w.inbox_mutex);
    w.inbox_nonempty.store(false, std::memory_order_release);
    batch.swap(w.inbox);
  }
  for (InboxMessage& m : batch) {
    const auto outcome =
        w.core->deliver_remote(m.cont.target, m.cont.slot, std::move(m.value));
    if (outcome == WorkerCore::Deliver::kUnknown) {
      PHISH_LOG(kError) << "threads runtime: argument for unknown closure "
                        << to_string(m.cont.target);
    }
  }
  return !batch.empty();
}

bool ThreadsRuntime::try_steal_for(int thief_index) {
  Worker& thief = *workers_[thief_index];
  // Choose a victim uniformly at random among the other workers.
  const auto pick = static_cast<int>(
      thief.rng.below(static_cast<std::uint64_t>(config_.workers - 1)));
  const int victim_index = pick >= thief_index ? pick + 1 : pick;
  Worker& victim = *workers_[victim_index];

  const std::uint64_t t0 = monotonic_ns();
  std::vector<Closure> stolen;
  if (use_lockfree_) {
    // No victim lock: CAS-steal straight from its Chase–Lev deque.  The
    // in_transit_ increment covers the whole window from the first possible
    // CAS until install, so the quiescence detector can never observe a
    // stolen task in neither deque (victim.core itself is only reconstructed
    // between jobs, so reading the pointer unlocked is safe).
    in_transit_.fetch_add(1);
    victim.core->steal_concurrent(
        stolen, static_cast<std::uint32_t>(config_.steal_batch));
  } else {
    std::lock_guard<std::mutex> lock(victim.core_mutex);
    stolen = victim.core->try_steal_batch(
        net::NodeId{static_cast<std::uint32_t>(thief_index)},
        static_cast<std::uint32_t>(config_.steal_batch));
    // Mark the tasks in transit *before* releasing the victim's lock so the
    // quiescence detector can never observe them in neither deque.
    if (!stolen.empty()) {
      in_transit_.fetch_add(1);
    }
  }
  const bool covered = use_lockfree_ || !stolen.empty();
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(thief.core_mutex);
    thief.core->note_steal_request_sent();
    if (stolen.empty()) {
      thief.core->note_steal_failed();
    } else {
      for (Closure& c : stolen) thief.core->install_stolen(std::move(c));
      steal_latency_.observe(monotonic_ns() - t0);
      ok = true;
    }
  }
  if (covered) in_transit_.fetch_sub(1);
  return ok;
}

void ThreadsRuntime::deliver(const ContRef& cont, Value value,
                             int sender_index) {
  (void)sender_index;
  if (cont.home == kResultNode) {
    {
      std::lock_guard<std::mutex> lock(result_mutex_);
      result_ = std::move(value);
    }
    done_.store(true, std::memory_order_release);
    pool_cv_.notify_all();
    return;
  }
  if (!cont.home.valid() ||
      cont.home.value >= static_cast<std::uint32_t>(config_.workers)) {
    PHISH_LOG(kError) << "threads runtime: send to unknown worker "
                      << net::to_string(cont.home);
    return;
  }
  Worker& target = *workers_[cont.home.value];
  std::lock_guard<std::mutex> lock(target.inbox_mutex);
  target.inbox.push_back(InboxMessage{cont, std::move(value)});
  target.inbox_nonempty.store(true, std::memory_order_release);
}

}  // namespace phish::rt
