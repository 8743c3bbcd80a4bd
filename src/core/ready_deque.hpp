// The ready-task list of Figure 1.
//
// The owning worker works at the HEAD in LIFO order: it pops the head to
// execute and pushes newly spawned tasks at the head.  Thieves steal from the
// TAIL in FIFO order — the task nearest the base of the spawn tree, likely to
// be large.  The paper argues (and our A1/A2 ablations demonstrate) that this
// pairing is what preserves memory and communication locality.
//
// Both disciplines are configurable so the ablation benches can invert them.
//
// Storage is a power-of-two ring of Closure* — the closures themselves live
// in the worker's ClosurePool — so push/pop move one pointer, not a closure.
// Thieves can take a batch (steal-half) in one call; with max = 1 the
// behavior is exactly the classic steal-one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/closure.hpp"

namespace phish {

/// Which end the owner executes from.
enum class ExecOrder : std::uint8_t {
  kLifo,  // paper's choice: depth-first, small working set
  kFifo,  // ablation: breadth-first, working set explodes
};

/// Which end thieves steal from.
enum class StealOrder : std::uint8_t {
  kFifo,  // paper's choice: tail == oldest == near the base of the tree
  kLifo,  // ablation: steal the newest (fine-grained) task
};

class ReadyDeque {
 public:
  ReadyDeque() : buf_(kInitialCapacity) {}
  ReadyDeque(ExecOrder exec_order, StealOrder steal_order)
      : buf_(kInitialCapacity),
        exec_order_(exec_order),
        steal_order_(steal_order) {}

  /// Spawn/enable: newly ready closures go at the head (paper's discipline).
  void push(Closure* closure) {
    if (count_ == buf_.size()) grow_();
    head_ = (head_ - 1) & mask_();
    buf_[head_] = closure;
    ++count_;
  }

  /// The owner takes its next task (head under LIFO); nullptr when empty.
  Closure* pop_for_execution() noexcept {
    if (count_ == 0) return nullptr;
    return exec_order_ == ExecOrder::kLifo ? take_front_() : take_back_();
  }

  /// A thief takes a task (tail under FIFO); nullptr when empty.
  Closure* pop_for_steal() noexcept {
    if (count_ == 0) return nullptr;
    return steal_order_ == StealOrder::kFifo ? take_back_() : take_front_();
  }

  /// Batched steal: up to `max` tasks from the steal end, capped at half of
  /// what is queued (steal-half), but always at least one when non-empty.
  /// Returns the number written to `out`, in the order a sequence of
  /// pop_for_steal() calls would have produced them.
  std::size_t pop_for_steal_batch(Closure** out, std::size_t max) noexcept {
    if (count_ == 0 || max == 0) return 0;
    std::size_t take = count_ / 2;
    if (take < 1) take = 1;
    if (take > max) take = max;
    for (std::size_t i = 0; i < take; ++i) out[i] = pop_for_steal();
    return take;
  }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  ExecOrder exec_order() const noexcept { return exec_order_; }
  StealOrder steal_order() const noexcept { return steal_order_; }

  /// Drain everything, head first (task migration when the owner reclaims
  /// the machine).
  std::vector<Closure*> drain() {
    std::vector<Closure*> out;
    out.reserve(count_);
    while (Closure* c = take_front_or_null_()) out.push_back(c);
    return out;
  }

  /// Inspect without removing: element `i`, head-relative (0 == next LIFO
  /// execution victim).  Used by checkpoint export and tests.
  const Closure* at(std::size_t i) const noexcept {
    return buf_[(head_ + i) & mask_()];
  }
  Closure* at(std::size_t i) noexcept { return buf_[(head_ + i) & mask_()]; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  std::size_t mask_() const noexcept { return buf_.size() - 1; }

  Closure* take_front_() noexcept {
    Closure* c = buf_[head_];
    head_ = (head_ + 1) & mask_();
    --count_;
    return c;
  }
  Closure* take_back_() noexcept {
    --count_;
    return buf_[(head_ + count_) & mask_()];
  }
  Closure* take_front_or_null_() noexcept {
    return count_ == 0 ? nullptr : take_front_();
  }

  void grow_();

  std::vector<Closure*> buf_;  // power-of-two ring
  std::size_t head_ = 0;       // index of the head element (when count_ > 0)
  std::size_t count_ = 0;
  ExecOrder exec_order_ = ExecOrder::kLifo;
  StealOrder steal_order_ = StealOrder::kFifo;
};

}  // namespace phish
