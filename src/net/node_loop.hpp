// NodeLoop: one node's event loop on one real thread.
//
// The paper's Phish worker is a single-threaded process that polls its UDP
// socket between tasks.  A NodeLoop is that process's control flow: its
// thread `poll`s the node's socket (if it has one) and an eventfd that
// carries work posted from other threads, with the next deadline of its own
// timer queue as the poll timeout.  Datagrams, posted work and timers all
// run on that one thread, so whatever the loop drives — a worker, a
// Clearinghouse, an RpcNode — is single-threaded, as in the simulator.
//
// A loop with no socket is a plain timer thread (ThreadTimerService).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/timer_service.hpp"

namespace phish::net {

class NodeLoop final : public TimerService {
 public:
  /// A loop with no socket: its thread only runs timers and posted work.
  NodeLoop() : NodeLoop(-1, {}) {}
  /// Start the loop's thread; it calls `on_readable` whenever `fd` is
  /// readable (a negative `fd` watches nothing).
  NodeLoop(int fd, std::function<void()> on_readable);
  ~NodeLoop() override;

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  /// Timer callbacks run on the loop's thread.  A cancel made on that
  /// thread is exact; from another thread the callback may already run.
  TimerToken schedule(std::uint64_t delay_ns,
                      std::function<void()> fn) override;
  void cancel(TimerToken token) override;
  std::uint64_t now_ns() const override;

  /// Queue `fn` for the loop's thread.  False once the loop has stopped:
  /// `fn` did not run.
  bool post(std::function<void()> fn);

  /// Run `fn` on the loop's thread: at once when called there or once the
  /// loop has stopped, posted otherwise.  The future holds its result, so
  /// `submit(fn).get()` also waits out whatever the loop is running now.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F fn) {
    auto task = std::make_shared<std::packaged_task<std::invoke_result_t<F>()>>(
        std::move(fn));
    auto done = task->get_future();
    if (in_loop() || !post([task] { (*task)(); })) (*task)();
    return done;
  }

  /// Loop thread, between tasks: a datagram or posted work is waiting, or
  /// a timer is due.  One zero-timeout poll.
  bool input_ready();

  /// End the thread: it first runs the work already posted; later posts
  /// fail and no timer fires again.  Idempotent; not on the loop's thread.
  void stop();

  bool in_loop() const noexcept {
    return std::this_thread::get_id() == loop_id_;
  }

 private:
  void thread_main();
  void wake();
  /// Run the work posted so far; false if there was none, and then with
  /// `close` refuse later posts.
  bool run_posted(bool close);
  /// Run every timer due by now, each without the lock held.
  void run_due_timers();

  const int fd_;
  const std::function<void()> on_readable_;
  const int wake_fd_;

  mutable std::mutex mutex_;  // guards everything below
  std::vector<std::function<void()>> posted_;
  // Key: (deadline, id), so equal deadlines fire in scheduling order.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::function<void()>>
      timers_;
  std::unordered_map<std::uint64_t, std::uint64_t> deadline_of_;
  std::uint64_t next_timer_id_ = 1;
  bool stopping_ = false;
  bool closed_ = false;  // the thread exited: posts fail

  std::thread thread_;
  std::thread::id loop_id_;
};

/// The real-time TimerService: a loop with no socket.
using ThreadTimerService = NodeLoop;

}  // namespace phish::net
