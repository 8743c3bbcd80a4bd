// Per-worker closure pool: freelist reuse over chunked arenas.
//
// Every spawn/complete cycle of the micro-scheduler creates and destroys one
// Closure.  The paper's slowdown budget (Table 1) assumes that cycle costs a
// handful of machine operations; a general-purpose heap allocation per
// closure is what pushed our reproduction's fib slowdown into the hundreds.
// The pool makes the cycle allocation-free in steady state: closures are
// carved from geometrically growing chunks, released closures go on a
// freelist, and a reused closure keeps the heap capacity of its ArgSlots, so
// even wide joins stop allocating once the working set is warm.  The paper's
// LIFO discipline keeps "max tasks in use" small and P-independent
// (Table 2), so the warm working set is a few dozen closures.
//
// Threading: a pool belongs to one WorkerCore and is guarded by whatever
// external synchronization guards that core (WorkerCore is documented as
// externally synchronized; victims serve steals under their own lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/closure.hpp"

namespace phish {

class ClosurePool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;        // total acquire() calls
    std::uint64_t freelist_reuses = 0; // acquires served from the freelist
    std::uint64_t chunks = 0;          // arena chunks allocated
    std::uint64_t capacity = 0;        // closures across all chunks
    std::uint64_t live = 0;            // acquired and not yet released
  };

  ClosurePool() = default;
  ClosurePool(const ClosurePool&) = delete;
  ClosurePool& operator=(const ClosurePool&) = delete;

  /// A pristine closure (id invalid, no args).  Never fails; grows by
  /// doubling when the freelist and the current chunk are exhausted.
  ///
  /// The freelist hit is the steady-state path (every spawn after warm-up)
  /// and every caller immediately stores through the returned pointer, so
  /// the load chain that produces it must be short and inline: with the
  /// grow path outlined, this body is small enough that the compiler
  /// inlines it into every spawn site instead of emitting a call whose
  /// prologue sits on the pointer's dependency chain.
  Closure* acquire() {
    ++stats_.acquires;
    ++stats_.live;
    if (__builtin_expect(!freelist_.empty(), 1)) {
      ++stats_.freelist_reuses;
      Closure* c = freelist_.back();
      freelist_.pop_back();
      return c;
    }
    return acquire_slow_();
  }

  /// Return a closure.  Clears it (freeing any blob payloads) and keeps it
  /// for reuse.  Chunks own every closure, live or free, until the pool
  /// dies.
  void release(Closure* c) {
    --stats_.live;
    c->recycle();
    freelist_.push_back(c);
  }

  const Stats& stats() const noexcept { return stats_; }

  /// Visit every slot ever carved (live or free; free slots have an invalid
  /// id).  Used by the owner at cold moments (migration, export, rejoin) to
  /// find closures that skipped eager bookkeeping; never concurrent with
  /// acquire/release.
  template <typename F>
  void for_each_slot(F&& f) {
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
      Closure* base = chunks_[k].get();
      const std::size_t n = chunk_sizes_[k];
      for (std::size_t i = 0; i < n; ++i) f(&base[i]);
    }
  }

  static constexpr std::size_t kFirstChunk = 64;
  static constexpr std::size_t kMaxChunkSize = 1u << 16;

 private:
  /// Arena growth, kept out of the inlined fast path.
  __attribute__((noinline)) Closure* acquire_slow_() {
    if (chunks_.empty() || carved_ == current_chunk_size_) {
      chunks_.push_back(std::make_unique<Closure[]>(next_chunk_size_));
      chunk_sizes_.push_back(next_chunk_size_);
      current_chunk_size_ = next_chunk_size_;
      carved_ = 0;
      ++stats_.chunks;
      stats_.capacity += next_chunk_size_;
      freelist_.reserve(static_cast<std::size_t>(stats_.capacity));
      if (next_chunk_size_ < kMaxChunkSize) next_chunk_size_ *= 2;
    }
    return &chunks_.back()[carved_++];
  }

  std::vector<std::unique_ptr<Closure[]>> chunks_;
  std::vector<std::size_t> chunk_sizes_;
  std::size_t current_chunk_size_ = 0;
  std::size_t carved_ = 0;
  std::size_t next_chunk_size_ = kFirstChunk;
  std::vector<Closure*> freelist_;
  Stats stats_;
};

}  // namespace phish
