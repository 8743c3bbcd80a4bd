// Timer abstraction so the RPC layer (retransmission timeouts) and the
// heartbeat/failure detectors run identically over simulated time and real
// time (NodeLoop, net/node_loop.hpp).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"

namespace phish::net {

struct TimerToken {
  std::uint64_t id = 0;
  bool valid() const noexcept { return id != 0; }
};

class TimerService {
 public:
  virtual ~TimerService() = default;

  /// Run `fn` once, `delay_ns` from now.
  virtual TimerToken schedule(std::uint64_t delay_ns,
                              std::function<void()> fn) = 0;

  /// Best-effort cancel; the callback may already be running.
  virtual void cancel(TimerToken token) = 0;

  /// Current time in nanoseconds on this service's clock.
  virtual std::uint64_t now_ns() const = 0;
};

/// Timer service over the discrete-event simulator (single-threaded).
class SimTimerService final : public TimerService {
 public:
  explicit SimTimerService(sim::Simulator& simulator) : sim_(simulator) {}

  TimerToken schedule(std::uint64_t delay_ns,
                      std::function<void()> fn) override {
    const sim::EventId ev = sim_.schedule(delay_ns, std::move(fn));
    return TimerToken{ev.seq};
  }

  void cancel(TimerToken token) override {
    sim_.cancel(sim::EventId{token.id});
  }

  std::uint64_t now_ns() const override { return sim_.now(); }

 private:
  sim::Simulator& sim_;
};

}  // namespace phish::net
