#include "net/node_loop.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace phish::net {

NodeLoop::NodeLoop(int fd, std::function<void()> on_readable)
    : fd_(fd),
      on_readable_(std::move(on_readable)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) {
    throw std::runtime_error("NodeLoop: eventfd() failed: " +
                             std::string(std::strerror(errno)));
  }
  // The thread's first act is to take the lock, so it sees loop_id_.
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    thread_ = std::thread([this] { thread_main(); });
  } catch (...) {
    ::close(wake_fd_);
    throw;
  }
  loop_id_ = thread_.get_id();
}

NodeLoop::~NodeLoop() {
  stop();
  ::close(wake_fd_);
}

void NodeLoop::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void NodeLoop::wake() {
  const std::uint64_t one = 1;
  const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  (void)n;  // a full counter is already a wake-up
}

bool NodeLoop::post(std::function<void()> fn) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    was_empty = posted_.empty();
    posted_.push_back(std::move(fn));
  }
  // A non-empty queue already woke the loop and is taken whole.
  if (was_empty) wake();
  return true;
}

TimerToken NodeLoop::schedule(std::uint64_t delay_ns,
                              std::function<void()> fn) {
  const std::uint64_t deadline = monotonic_ns() + delay_ns;
  std::uint64_t id = 0;
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_timer_id_++;
    const auto it =
        timers_.emplace(std::make_pair(deadline, id), std::move(fn)).first;
    deadline_of_.emplace(id, deadline);
    earliest = it == timers_.begin();
  }
  // The loop may be asleep on a later deadline.
  if (earliest && !in_loop()) wake();
  return TimerToken{id};
}

void NodeLoop::cancel(TimerToken token) {
  if (!token.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = deadline_of_.find(token.id);
  if (it == deadline_of_.end()) return;
  timers_.erase(std::make_pair(it->second, token.id));
  deadline_of_.erase(it);
}

std::uint64_t NodeLoop::now_ns() const { return monotonic_ns(); }

bool NodeLoop::input_ready() {
  pollfd fds[2] = {{wake_fd_, POLLIN, 0}, {fd_, POLLIN, 0}};
  if (::poll(fds, fd_ >= 0 ? 2 : 1, 0) > 0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  return !timers_.empty() && timers_.begin()->first.first <= monotonic_ns();
}

void NodeLoop::run_due_timers() {
  const std::uint64_t now = monotonic_ns();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_ && !timers_.empty() &&
         timers_.begin()->first.first <= now) {
    auto fn = std::move(timers_.begin()->second);
    deadline_of_.erase(timers_.begin()->first.second);
    timers_.erase(timers_.begin());
    lock.unlock();
    fn();  // may schedule or cancel timers
    lock.lock();
  }
}

bool NodeLoop::run_posted(bool close) {
  std::vector<std::function<void()>> work;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    work.swap(posted_);
    if (work.empty()) {
      closed_ = closed_ || close;
      return false;
    }
  }
  for (auto& fn : work) fn();
  return true;
}

void NodeLoop::thread_main() {
  constexpr std::uint64_t kNoTimer = std::numeric_limits<std::uint64_t>::max();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // Posted work or a due timer: poll without sleeping.
    std::uint64_t wait = kNoTimer;
    if (!posted_.empty()) {
      wait = 0;
    } else if (!timers_.empty()) {
      const std::uint64_t next = timers_.begin()->first.first;
      const std::uint64_t now = monotonic_ns();
      wait = next > now ? next - now : 0;
    }
    lock.unlock();
    pollfd fds[2] = {{wake_fd_, POLLIN, 0}, {fd_, POLLIN, 0}};
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds, fd_ >= 0 ? 2 : 1, wait == kNoTimer ? nullptr : &ts,
                nullptr) > 0) {
      if (fd_ >= 0 && (fds[1].revents & POLLIN) != 0) on_readable_();
      if ((fds[0].revents & POLLIN) != 0) {
        std::uint64_t count = 0;
        const ssize_t n = ::read(wake_fd_, &count, sizeof count);
        (void)n;  // nonblocking: a racing reader leaves EAGAIN
      }
    }
    run_posted(/*close=*/false);
    run_due_timers();
    lock.lock();
  }
  lock.unlock();
  // Stopping: run what was posted before the stop, then refuse the rest.
  while (run_posted(/*close=*/true)) {
  }
}

}  // namespace phish::net
