// Closures: the unit of work of the micro-level scheduler.
//
// A closure names a task function (via the registry), carries argument slots
// with fill flags and a missing-count (the synchronization requirement), and
// holds the continuation its result is sent to.  A closure whose last missing
// argument arrives becomes *ready* and is pushed on the worker's ready list
// (Figure 1 of the paper).  Only ready closures are ever executed, stolen, or
// migrated.
//
// Hot-path layout: argument slots live in ArgSlots, a small-buffer container
// holding up to kInlineSlots values inline with a bitmask of fill flags, so
// the common spawn (one or two small arguments) and join (a handful of
// slots) touch no allocator at all.  Larger slot counts — wide DSL joins,
// hostile decodes — spill to a heap array that ArgSlots owns and reuses
// across reset() calls, which lets the closure pool recycle join closures
// without re-allocating.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "core/value.hpp"

namespace phish {

/// Argument-slot storage: values plus per-slot fill flags.
class ArgSlots {
 public:
  /// Slots stored inline.  Two covers the dominant fine-grain arities (one
  /// spawn argument; two-slot joins); wider tasks (nqueens, ray: up to 4)
  /// spill to the heap once per pool slot and then recycle that capacity
  /// forever (see ClosurePool).  Keeping the inline array small keeps
  /// sizeof(Closure) at ~3 cache lines instead of ~4, measurably faster on
  /// the fib Table 1 row where 3 closures are touched per tree node.
  static constexpr std::uint32_t kInlineSlots = 2;
  /// Fill flags stored in the inline bitmask; beyond this a byte array is
  /// allocated alongside the value array.
  static constexpr std::uint32_t kMaskBits = 64;

  ArgSlots() = default;

  /// All-filled construction (spawn arguments).
  ArgSlots(std::initializer_list<Value> values) {  // NOLINT(google-explicit-constructor)
    reserve_(static_cast<std::uint32_t>(values.size()));
    size_ = static_cast<std::uint32_t>(values.size());
    Value* v = values_();
    std::uint32_t i = 0;
    for (const Value& value : values) v[i++] = value;  // init-lists are const
    mark_all_filled_();
  }
  ArgSlots(std::vector<Value>&& values) {  // NOLINT(google-explicit-constructor)
    reserve_(static_cast<std::uint32_t>(values.size()));
    size_ = static_cast<std::uint32_t>(values.size());
    Value* v = values_();
    for (std::uint32_t i = 0; i < size_; ++i) v[i] = std::move(values[i]);
    mark_all_filled_();
  }
  ArgSlots(const std::vector<Value>& values)  // NOLINT(google-explicit-constructor)
      : ArgSlots(std::vector<Value>(values)) {}

  ArgSlots(const ArgSlots& other) { copy_from_(other); }
  ArgSlots(ArgSlots&& other) noexcept { move_from_(std::move(other)); }
  ArgSlots& operator=(const ArgSlots& other) {
    if (this != &other) {
      release_();
      copy_from_(other);
    }
    return *this;
  }
  ArgSlots& operator=(ArgSlots&& other) noexcept {
    if (this != &other) {
      release_();
      move_from_(std::move(other));
    }
    return *this;
  }
  ~ArgSlots() { release_(); }

  /// Re-shape to `n` empty, unfilled slots.  Keeps any heap capacity from a
  /// previous life (the closure pool relies on this to recycle wide joins
  /// without allocating).
  void reset(std::uint32_t n) {
    Value* old = values_();
    const std::uint32_t old_n = size_ < capacity_() ? size_ : capacity_();
    for (std::uint32_t i = 0; i < old_n; ++i) old[i] = Value();
    reserve_(n);
    size_ = n;
    mask_ = 0;
    if (flags_ != nullptr) {
      for (std::uint32_t i = 0; i < n; ++i) flags_[i] = 0;
    }
  }

  /// Empty (size 0), keeping heap capacity.
  void clear() { reset(0); }

  /// In-place all-filled assignment (the spawn hot path): reuses this
  /// object's storage instead of constructing a temporary and moving it,
  /// and overwrites [0, n) directly — Value assignment releases whatever a
  /// previous life left there, so reset()'s clear-then-copy double write is
  /// unnecessary.  Only the tail beyond the new size is nilled, to keep the
  /// invariant reset() relies on: slots past size_ are always nil.
  void assign_filled(std::initializer_list<Value> values) {
    const std::uint32_t n = static_cast<std::uint32_t>(values.size());
    Value* old = values_();
    const std::uint32_t old_n = size_ < capacity_() ? size_ : capacity_();
    for (std::uint32_t i = n; i < old_n; ++i) old[i] = Value();
    reserve_(n);
    Value* v = values_();
    std::uint32_t i = 0;
    for (const Value& value : values) v[i++] = value;
    size_ = n;
    mark_all_filled_();
  }

  /// Single-value all-filled assignment: the dominant spawn arity in the
  /// paper's applications (fib, nqueens, pfold all pass one value per
  /// child), with none of the initializer-list copy machinery — the value
  /// moves straight into slot 0.  Takes an rvalue reference rather than a
  /// by-value parameter: each by-value hand-off on the spawn chain is a
  /// separate tag-branch move plus destroy, and the chain is three calls
  /// deep, so reference passing saves two moves per spawn.
  void assign_filled(Value&& value) {
    Value* old = values_();
    const std::uint32_t old_n = size_ < capacity_() ? size_ : capacity_();
    for (std::uint32_t i = 1; i < old_n; ++i) old[i] = Value();
    if (flags_ != nullptr) reserve_(1);  // drop byte flags, back to the mask
    values_()[0] = std::move(value);
    size_ = 1;
    mask_ = 1;
  }

  std::uint32_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  Value& operator[](std::size_t i) noexcept { return values_()[i]; }
  const Value& operator[](std::size_t i) const noexcept { return values_()[i]; }
  Value* begin() noexcept { return values_(); }
  Value* end() noexcept { return values_() + size_; }
  const Value* begin() const noexcept { return values_(); }
  const Value* end() const noexcept { return values_() + size_; }

  bool filled(std::uint32_t i) const noexcept {
    if (flags_ != nullptr) return flags_[i] != 0;
    return (mask_ >> i) & 1u;
  }

  /// Fill a slot; false (and no change) if out of range or already filled.
  /// Rvalue-reference parameter for the same reason as assign_filled: the
  /// send chain (Context::send -> send_argument -> Closure::fill -> here) is
  /// deep enough that by-value passing costs three extra Value moves.
  bool fill(std::uint32_t i, Value&& value) {
    if (i >= size_ || filled(i)) return false;
    values_()[i] = std::move(value);
    set_filled_(i);
    return true;
  }

  /// Decode path: place a value and its fill flag verbatim, without the
  /// idempotence check (the wire carries the missing-count separately).
  void install(std::uint32_t i, Value value, bool is_filled) {
    values_()[i] = std::move(value);
    if (is_filled) set_filled_(i);
  }

  /// Move the values out (DSL reduce hands them to user code as a vector).
  std::vector<Value> take_vector() {
    std::vector<Value> out;
    out.reserve(size_);
    Value* v = values_();
    for (std::uint32_t i = 0; i < size_; ++i) out.push_back(std::move(v[i]));
    return out;
  }

  bool operator==(const ArgSlots& other) const {
    if (size_ != other.size_) return false;
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (filled(i) != other.filled(i)) return false;
      if (!(values_()[i] == other.values_()[i])) return false;
    }
    return true;
  }

 private:
  std::uint32_t capacity_() const noexcept {
    return heap_ != nullptr ? heap_cap_ : kInlineSlots;
  }
  Value* values_() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  const Value* values_() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  void set_filled_(std::uint32_t i) noexcept {
    if (flags_ != nullptr) {
      flags_[i] = 1;
    } else {
      mask_ |= std::uint64_t{1} << i;
    }
  }
  void mark_all_filled_() noexcept {
    if (flags_ != nullptr) {
      for (std::uint32_t i = 0; i < size_; ++i) flags_[i] = 1;
    } else {
      mask_ = size_ == 0 ? 0 : (~std::uint64_t{0} >> (kMaskBits - size_));
    }
  }

  /// Ensure capacity for n slots (values default-initialized on growth) and
  /// flag storage matching the final shape.  Does not set size_.
  void reserve_(std::uint32_t n) {
    if (n > capacity_()) {
      delete[] heap_;
      heap_ = new Value[n];
      heap_cap_ = n;
    }
    if (n > kMaskBits) {
      if (flags_ == nullptr || flags_cap_ < n) {
        delete[] flags_;
        flags_ = new std::uint8_t[n]();
        flags_cap_ = n;
      }
    } else if (flags_ != nullptr) {
      delete[] flags_;  // back to the inline mask
      flags_ = nullptr;
      flags_cap_ = 0;
    }
  }

  void release_() noexcept {
    delete[] heap_;
    delete[] flags_;
    heap_ = nullptr;
    flags_ = nullptr;
    heap_cap_ = 0;
    flags_cap_ = 0;
    size_ = 0;
    mask_ = 0;
  }

  void copy_from_(const ArgSlots& other) {
    reserve_(other.size_);
    size_ = other.size_;
    mask_ = other.mask_;
    const Value* src = other.values_();
    Value* dst = values_();
    for (std::uint32_t i = 0; i < size_; ++i) dst[i] = src[i];
    if (other.flags_ != nullptr) {
      for (std::uint32_t i = 0; i < size_; ++i) flags_[i] = other.flags_[i];
    }
  }

  void move_from_(ArgSlots&& other) noexcept {
    size_ = other.size_;
    mask_ = other.mask_;
    heap_ = other.heap_;
    heap_cap_ = other.heap_cap_;
    flags_ = other.flags_;
    flags_cap_ = other.flags_cap_;
    if (heap_ == nullptr) {
      const std::uint32_t n = size_ < kInlineSlots ? size_ : kInlineSlots;
      for (std::uint32_t i = 0; i < n; ++i) {
        inline_[i] = std::move(other.inline_[i]);
      }
    }
    other.heap_ = nullptr;
    other.flags_ = nullptr;
    other.heap_cap_ = 0;
    other.flags_cap_ = 0;
    other.size_ = 0;
    other.mask_ = 0;
  }

  Value inline_[kInlineSlots];
  Value* heap_ = nullptr;        // value array when size_ > kInlineSlots
  std::uint8_t* flags_ = nullptr;  // fill flags when size_ > kMaskBits
  std::uint32_t heap_cap_ = 0;
  std::uint32_t flags_cap_ = 0;
  std::uint32_t size_ = 0;
  std::uint64_t mask_ = 0;       // fill flags when size_ <= kMaskBits
};

struct Closure {
  ClosureId id;
  TaskId task = kInvalidTask;
  ContRef cont;                 // where to send this closure's result
  ArgSlots args;                // argument slots + per-slot fill flags
  std::uint32_t missing = 0;    // slots still empty; 0 == ready
  std::uint32_t depth = 0;      // spawn-tree depth, for stats and cost models
  std::uint32_t wait_slot = 0;  // WaitingTable bucket index; maintained by
                                // the table, meaningless elsewhere, never
                                // encoded
  /// Installed on this worker by a steal (WorkerCore::install_stolen), so a
  /// death of cont.home aborts it while it is still queued.  In-memory only,
  /// never encoded; recycle() and WorkerCore::adopt() clear it.  Sits in
  /// the tail padding, so it adds nothing to sizeof(Closure).
  bool stolen = false;

  /// wait_slot sentinel: a waiting closure created in pooled mode that has
  /// not (yet) been inserted into the WaitingTable.  Local sends reach it
  /// through the ContRef pool-pointer hint; the owner registers it for real
  /// before any path that needs id-addressability (migration, export,
  /// hint-less sends).
  static constexpr std::uint32_t kNoWaitSlot = 0xFFFFFFFFu;

  /// Wire slot-count bound: anything larger is a hostile or corrupt payload.
  static constexpr std::uint32_t kMaxWireSlots = 1u << 20;
  /// Fixed header size, derived from the id/cont encoders so layout changes
  /// cannot silently skew the cost models: id + task u32 + cont + depth u32
  /// + nargs u32 + missing u32.
  static constexpr std::size_t kHeaderWireBytes =
      ClosureId::kWireBytes + 4 + ContRef::kWireBytes + 4 + 4 + 4;

  bool ready() const noexcept { return missing == 0; }

  /// Fill a slot.  Returns false (and changes nothing) if the slot was
  /// already filled — this makes duplicate argument sends idempotent, which
  /// the fault-tolerance redo machinery relies on.
  bool fill(std::uint16_t slot, Value&& value) {
    if (!args.fill(slot, std::move(value))) return false;
    --missing;
    return true;
  }

  /// Invalidate for pool reuse.  The id must be cleared here: a stale valid
  /// id would defeat lazy re-materialization on the next life.  So must the
  /// stolen flag, which no spawn path writes.  Every other field — task,
  /// cont, args, missing, depth — is overwritten by whichever acquire path
  /// revives the closure (spawn, create_waiting, adopt), and args clears its
  /// old values itself on reset/assign/move.
  void recycle() {
    id = ClosureId{};
    stolen = false;
  }

  /// Wire encoding: everything needed to execute the closure elsewhere
  /// (steals, migration, and the steal ledger's redo snapshots).
  void encode(Writer& w) const {
    id.encode(w);
    w.u32(task);
    cont.encode(w);
    w.u32(depth);
    w.u32(args.size());
    w.u32(missing);
    for (std::uint32_t i = 0; i < args.size(); ++i) {
      w.boolean(args.filled(i));
      args[i].encode(w);
    }
  }

  /// Decode.  On truncated, absurd, or internally inconsistent payloads the
  /// reader is failed (r.ok() == false) so steal/migrate callers can reject
  /// the closure explicitly — a partially-filled result must never be
  /// installed.
  static Closure decode(Reader& r) {
    Closure c;
    c.id = ClosureId::decode(r);
    c.task = r.u32();
    c.cont = ContRef::decode(r);
    c.depth = r.u32();
    const std::uint32_t n = r.u32();
    c.missing = r.u32();
    if (!r.ok()) return c;
    // Structural sanity before any allocation: a slot encodes to at least
    // 2 bytes (fill flag + value kind), so a count the buffer cannot hold is
    // hostile; an invalid id/task or missing > nargs cannot come from
    // encode().
    if (n > kMaxWireSlots || c.missing > n || r.remaining() < 2 * n ||
        !c.id.valid() || c.task == kInvalidTask) {
      r.fail();
      return c;
    }
    c.args.reset(n);
    std::uint32_t unfilled = 0;
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const bool f = r.boolean();
      if (!f) ++unfilled;
      c.args.install(i, Value::decode(r), f);
    }
    if (r.ok() && unfilled != c.missing) {
      r.fail();  // fill flags disagree with the missing-count
    }
    return c;
  }

  /// Exact wire size, derived from the same constants encode() uses.
  std::size_t byte_size() const noexcept {
    std::size_t sz = kHeaderWireBytes;
    for (const Value& v : args) sz += 1 + v.byte_size();
    return sz;
  }
};

}  // namespace phish
