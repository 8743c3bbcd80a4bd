// Chase–Lev work-stealing deque (SPAA 2005), the lock-free successor of the
// locked ready list the paper's scheduler uses.
//
// The owner pushes and pops at the bottom without synchronization beyond
// fences; thieves steal from the top with a CAS.  Exactly the LIFO-owner /
// FIFO-thief discipline of Figure 1, minus the lock.  Ablation A5 compares
// this against the mutex-protected ReadyDeque to quantify what the 1994
// design left on the table (answer on a workstation network: nothing that
// matters — the network dominates — but in shared memory it shows).
//
// Storage: a non-pointer T is boxed (heap-allocated) per push; a pointer T
// is stored directly in the slots, so pushing pooled Closure* costs no
// allocation — the configuration the pooled hot path uses.  The deque grows
// by doubling; shrinking is not implemented (matches common practice).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

namespace phish {

template <typename T>
class ChaseLevDeque {
  static constexpr bool kDirect = std::is_pointer_v<T>;
  // Slot payload: T itself when T is a pointer, a heap box otherwise.
  using Boxed = std::conditional_t<kDirect, std::remove_pointer_t<T>, T>;

 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : array_(new Array(round_up(initial_capacity))) {}

  ~ChaseLevDeque() {
    // Drain anything left (single-threaded at destruction).  Boxed payloads
    // are freed; direct pointers belong to the caller's pool and are only
    // dropped from the deque.
    while (pop()) {
    }
    Array* a = array_.load(std::memory_order_relaxed);
    delete a;
    for (Array* old : retired_) delete old;
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only: push at the bottom.
  void push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) {
      a = grow(a, t, b);
    }
    if constexpr (kDirect) {
      a->put(b, value);
    } else {
      a->put(b, new Boxed(std::move(value)));
    }
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner only: pop from the bottom (LIFO).
  std::optional<T> pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);

    if (t > b) {
      // Deque was empty; restore.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Boxed* item = a->get(b);
    if (t == b) {
      // Last element: race against thieves with a CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        // Lost to a thief.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return std::nullopt;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return unbox(item);
  }

  /// Any thread: steal from the top (FIFO).
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return std::nullopt;  // empty
    Array* a = array_.load(std::memory_order_consume);
    Boxed* item = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return std::nullopt;  // lost the race
    }
    return unbox(item);
  }

  /// Any thread: steal up to `max` items into `out`, capped at half of the
  /// (approximate) current size — steal-half — but at least one attempt.
  /// Each item is still taken with its own CAS, so the usual Chase–Lev
  /// guarantees hold per item; the batch is not atomic as a whole, which is
  /// fine for work stealing (a half-batch is just a smaller steal).
  /// Returns the number of items written to `out`.
  std::size_t steal_batch(T* out, std::size_t max) {
    if (max == 0) return 0;
    std::size_t want = size_approx() / 2;
    if (want < 1) want = 1;
    if (want > max) want = max;
    std::size_t got = 0;
    while (got < want) {
      auto item = steal();
      if (!item) break;
      out[got++] = std::move(*item);
    }
    return got;
  }

  /// Owner only, and only when externally synchronized against thieves
  /// (quiescent snapshot/export): element `i` counting from the bottom
  /// (i == 0 is the next owner pop).  Direct-pointer storage only.
  T peek_from_bottom(std::size_t i) const {
    static_assert(kDirect, "peek_from_bottom requires pointer payloads");
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    Array* a = array_.load(std::memory_order_relaxed);
    return a->get(b - 1 - static_cast<std::int64_t>(i));
  }

  /// Approximate size (racy; exact when quiescent).
  std::size_t size_approx() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty_approx() const { return size_approx() == 0; }

 private:
  struct Array {
    explicit Array(std::size_t n) : capacity(n), mask(n - 1), slots(n) {}
    std::size_t capacity;
    std::size_t mask;
    std::vector<std::atomic<Boxed*>> slots;

    // The textbook C11 deque keeps slot accesses relaxed and publishes the
    // pointee through the release fence in push().  We use release/acquire
    // on the slot itself instead: it is what carries the happens-before
    // edge from the owner's writes into the pointed-to closure to the
    // thief's copy of it.  On x86 and ARM64 both compile to the same plain
    // load/store as relaxed would, and — unlike the fence, which TSan does
    // not model — this keeps the whole steal protocol provable by the
    // TSan-built steal-churn stress test.
    Boxed* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_acquire);
    }
    void put(std::int64_t i, Boxed* p) {
      slots[static_cast<std::size_t>(i) & mask].store(
          p, std::memory_order_release);
    }
  };

  static T unbox(Boxed* item) {
    if constexpr (kDirect) {
      return item;
    } else {
      T out = std::move(*item);
      delete item;
      return out;
    }
  }

  static std::size_t round_up(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 2 ? 2 : p;
  }

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    array_.store(bigger, std::memory_order_release);
    // Old arrays are retired, not freed: a concurrent thief may still be
    // reading through the stale pointer.  Reclaimed in the destructor.
    retired_.push_back(old);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<Array*> retired_;  // owner-only
};

}  // namespace phish
