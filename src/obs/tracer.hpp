// Structured event tracer: per-worker lock-free rings of fixed-size records.
//
// Hot-path contract (the reason this design exists): recording an event is a
// relaxed flag load, a clock read, and one SPSC ring push — no locks, no
// allocation, no syscalls — and when the ring is full the event is dropped
// and counted rather than ever stalling the scheduler.  A runtime switch
// guards the cost: a Tracer starts enabled but can be toggled, and emit() on
// a disabled tracer is a single relaxed load.  Code that was never handed a
// shard (the default) pays one null-pointer test.
//
// Threading: shard(tid) hands each producer thread its own ring; collect()
// is the single consumer and may run concurrently with producers (snapshot
// mode) or after the run (drain).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/event.hpp"
#include "obs/ring_buffer.hpp"

namespace phish::obs {

class Tracer;

/// One producer endpoint: the per-worker ring plus the owning tracer's
/// enable flag.  Obtained from Tracer::shard(); stable for the tracer's
/// lifetime.
class TraceShard {
 public:
  void emit(const TraceEvent& event) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    ring_.try_push(event);
  }

  /// Runtime switch state; emit sites check this before computing event
  /// arguments (e.g. reading a clock) so a disabled tracer costs one
  /// relaxed load.
  bool enabled() const noexcept {
    return enabled_->load(std::memory_order_relaxed);
  }

  std::uint16_t tid() const noexcept { return tid_; }
  std::uint64_t dropped() const noexcept { return ring_.dropped(); }

 private:
  friend class Tracer;
  TraceShard(const std::atomic<bool>* enabled, std::uint16_t tid,
             std::size_t capacity)
      : ring_(capacity), enabled_(enabled), tid_(tid) {}

  SpscRing<TraceEvent> ring_;
  const std::atomic<bool>* enabled_;
  std::uint16_t tid_;
};

class Tracer {
 public:
  /// `shard_capacity` is per worker, rounded up to a power of two.
  explicit Tracer(std::size_t shard_capacity = 1u << 16)
      : shard_capacity_(shard_capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Create-or-get the shard for a worker/node id.  Setup path (mutex);
  /// call once per worker and cache the pointer.
  TraceShard* shard(std::uint16_t tid);

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drain every shard and return all events sorted by (t_start, worker,
  /// type, seq) — a deterministic order, so identical runs yield identical
  /// collections.  Single-consumer; may run while producers are live.
  std::vector<TraceEvent> collect();

  /// Events dropped across all shards because a ring was full.
  std::uint64_t total_dropped() const;

  std::size_t shard_count() const;

 private:
  const std::size_t shard_capacity_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;  // guards shards_ layout, not the rings
  std::vector<std::unique_ptr<TraceShard>> shards_;
};

}  // namespace phish::obs
