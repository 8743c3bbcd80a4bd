#include "net/timer_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "net/node_loop.hpp"

namespace phish::net {
namespace {

TEST(SimTimerService, FiresThroughSimulator) {
  sim::Simulator s;
  SimTimerService timers(s);
  bool fired = false;
  timers.schedule(100, [&] { fired = true; });
  EXPECT_EQ(timers.now_ns(), 0u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(timers.now_ns(), 100u);
}

TEST(SimTimerService, CancelPreventsFiring) {
  sim::Simulator s;
  SimTimerService timers(s);
  bool fired = false;
  const TimerToken t = timers.schedule(100, [&] { fired = true; });
  timers.cancel(t);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(ThreadTimerService, FiresApproximatelyOnTime) {
  ThreadTimerService timers;
  std::atomic<bool> fired{false};
  const std::uint64_t t0 = timers.now_ns();
  timers.schedule(20'000'000, [&] { fired = true; });  // 20 ms
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_GE(timers.now_ns() - t0, 19'000'000u);
}

TEST(ThreadTimerService, CancelBeforeFire) {
  ThreadTimerService timers;
  std::atomic<bool> fired{false};
  const TimerToken t = timers.schedule(50'000'000, [&] { fired = true; });
  timers.cancel(t);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(fired.load());
}

TEST(ThreadTimerService, CancelAfterFireIsSafe) {
  ThreadTimerService timers;
  std::atomic<bool> fired{false};
  const TimerToken t = timers.schedule(1'000'000, [&] { fired = true; });
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(fired.load());
  EXPECT_NO_THROW(timers.cancel(t));
  EXPECT_NO_THROW(timers.cancel(TimerToken{}));
}

TEST(ThreadTimerService, MultipleTimersFireInOrder) {
  ThreadTimerService timers;
  std::mutex m;
  std::vector<int> order;
  std::atomic<int> fired{0};
  timers.schedule(30'000'000, [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(3);
    ++fired;
  });
  timers.schedule(10'000'000, [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(1);
    ++fired;
  });
  timers.schedule(20'000'000, [&] {
    std::lock_guard<std::mutex> l(m);
    order.push_back(2);
    ++fired;
  });
  for (int i = 0; i < 400 && fired < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard<std::mutex> l(m);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadTimerService, CallbackCanScheduleMore) {
  ThreadTimerService timers;
  std::atomic<int> count{0};
  std::function<void()> tick = [&] {
    if (++count < 3) timers.schedule(2'000'000, tick);
  };
  timers.schedule(2'000'000, tick);
  for (int i = 0; i < 400 && count < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadTimerService, DestructionWithPendingTimersIsClean) {
  std::atomic<bool> fired{false};
  {
    ThreadTimerService timers;
    timers.schedule(10'000'000'000ULL, [&] { fired = true; });  // 10 s
  }  // destructor must not hang or fire
  EXPECT_FALSE(fired.load());
}

TEST(NodeLoop, PostsRunInOrderOnTheLoopThread) {
  NodeLoop loop;
  std::vector<int> order;  // touched on the loop thread only
  for (int i = 0; i < 3; ++i) loop.post([&, i] { order.push_back(i); });
  // submit() waits out everything posted before it; from the loop thread
  // it runs at once (queued, it would wait on itself).
  const int inner = loop.submit([&] {
                          EXPECT_TRUE(loop.in_loop());
                          return loop.submit([] { return 7; }).get();
                        })
                        .get();
  EXPECT_EQ(inner, 7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(loop.in_loop());
}

TEST(NodeLoop, CancelOnTheLoopThreadIsExact) {
  // Both timers fall due in the same pass; the first cancels the second,
  // which must then not run although it was already due.
  NodeLoop loop;
  TimerToken second{};  // loop thread only
  std::atomic<bool> first_fired{false}, second_fired{false};
  loop.submit([&] {
        loop.schedule(1'000'000, [&] {
          loop.cancel(second);
          first_fired = true;
        });
        second = loop.schedule(1'000'000, [&] { second_fired = true; });
        // Hold the loop until both deadlines have passed.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      })
      .get();
  for (int i = 0; i < 200 && !first_fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  loop.stop();
  EXPECT_TRUE(first_fired.load());
  EXPECT_FALSE(second_fired.load());
}

TEST(NodeLoop, InputReadySeesPostedWorkAndDueTimers) {
  NodeLoop loop;
  const auto [idle, posted] = loop.submit([&] {
                                    const bool before = loop.input_ready();
                                    loop.post([] {});
                                    return std::pair{before,
                                                     loop.input_ready()};
                                  })
                                  .get();
  EXPECT_FALSE(idle);
  EXPECT_TRUE(posted);
  const bool timer_due = loop.submit([&] {
                               loop.schedule(0, [] {});
                               return loop.input_ready();
                             })
                             .get();
  EXPECT_TRUE(timer_due);
}

TEST(NodeLoop, StopRunsWhatWasPostedThenRefusesPosts) {
  NodeLoop loop;
  std::atomic<int> ran{0};
  loop.post([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++ran;
  });
  loop.post([&] { ++ran; });
  loop.stop();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(loop.post([&] { ++ran; }));
  // Once stopped, submit runs on the caller's thread.
  EXPECT_EQ(loop.submit([] { return std::this_thread::get_id(); }).get(),
            std::this_thread::get_id());
}

}  // namespace
}  // namespace phish::net
