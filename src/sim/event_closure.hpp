// Allocation-free event closures for the DES kernel.
//
// EventClosure replaces std::function<void()> in the simulator's event
// queue.  Captures up to kInlineSize bytes (chosen to cover every lambda
// the codebase schedules -- the largest is Channel::broadcast's delivery
// closure at 64 bytes; see the capture audit in
// tests/event_engine_test.cpp) are stored inline in the Event itself, so
// steady-state scheduling performs zero heap allocations.  Oversized
// captures fall back to a free-list ClosurePool owned by the simulator:
// the first closure of each size class allocates a block, every later
// one reuses a recycled block, so even the oversized path is
// allocation-free at steady state.
//
// Contract:
//   - EventClosure is move-only.  Inline closures relocate via the
//     callable's (noexcept) move constructor; pooled closures relocate by
//     copying one pointer.
//   - A pooled closure must be destroyed while its ClosurePool is alive
//     and on the thread running that pool's simulator (the kernel is
//     single-threaded; one Simulator == one pool == one thread).
//   - fits_inline<F>() is constexpr, so tests can pin the audit:
//     every capture currently scheduled must stay inline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace refer::sim {

/// Free-list allocator for oversized event captures.  Blocks are grouped
/// in power-of-two size classes from 64 B to 8 KiB; freed blocks park on
/// a per-class list and are handed back verbatim on the next allocation
/// of the same class.  Captures beyond the largest class (none exist
/// today) degrade to plain new/delete per use.
class ClosurePool {
 public:
  struct Stats {
    std::uint64_t inline_closures = 0;  ///< captures stored in the Event
    std::uint64_t pooled_closures = 0;  ///< captures routed through the pool
    std::uint64_t blocks_allocated = 0;  ///< heap allocations performed
    std::uint64_t blocks_recycled = 0;   ///< allocations served free-list
  };

  static constexpr std::size_t kMinBlock = 64;
  static constexpr int kClasses = 8;  // 64, 128, ..., 8192 bytes

  ClosurePool() = default;
  ClosurePool(const ClosurePool&) = delete;
  ClosurePool& operator=(const ClosurePool&) = delete;
  ~ClosurePool() {
    for (Header*& list : free_) {
      while (list) {
        Header* next = list->link;
        ::operator delete(list);
        list = next;
      }
    }
  }

  /// Returns storage for `bytes` payload bytes.  The payload is aligned
  /// to max_align_t; the preceding header remembers how to free it.
  void* allocate(std::size_t bytes) {
    const int cls = size_class(bytes);
    ++stats_.pooled_closures;
    if (cls < kClasses && free_[cls]) {
      Header* h = free_[cls];
      free_[cls] = h->link;
      ++stats_.blocks_recycled;
      h->link = nullptr;
      return payload(h);
    }
    const std::size_t payload_bytes =
        cls < kClasses ? (kMinBlock << cls) : bytes;
    auto* h = static_cast<Header*>(
        ::operator new(sizeof(Header) + payload_bytes));
    h->link = nullptr;
    h->cls = cls;
    ++stats_.blocks_allocated;
    return payload(h);
  }

  /// Returns a block obtained from allocate() to its free list (or the
  /// heap, for beyond-largest-class blocks).
  void deallocate(void* p) noexcept {
    Header* h = header(p);
    if (h->cls >= kClasses) {
      ::operator delete(h);
      return;
    }
    h->link = free_[h->cls];
    free_[h->cls] = h;
  }

  void count_inline() noexcept { ++stats_.inline_closures; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct alignas(std::max_align_t) Header {
    Header* link = nullptr;  ///< next free block while parked
    int cls = 0;             ///< size class; >= kClasses = plain delete
  };

  static int size_class(std::size_t bytes) noexcept {
    std::size_t block = kMinBlock;
    int cls = 0;
    while (block < bytes && cls < kClasses) {
      block <<= 1;
      ++cls;
    }
    return cls;
  }
  static void* payload(Header* h) noexcept { return h + 1; }
  static Header* header(void* p) noexcept {
    return static_cast<Header*>(p) - 1;
  }

  Header* free_[kClasses] = {};
  Stats stats_;
};

/// Move-only type-erased void() callable with small-buffer storage.
class EventClosure {
 public:
  /// Inline capacity.  The audit (tests/event_engine_test.cpp) pins every
  /// capture currently scheduled by channel.cpp, net/, refer/, baselines/
  /// and the harness under this bound; the largest today is 64 bytes.
  static constexpr std::size_t kInlineSize = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when callables of type F store inline (no pool traffic).
  template <typename F>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  EventClosure() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventClosure>>>
  EventClosure(ClosurePool& pool, F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event closures are void() callables");
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      vt_ = &kInlineVt<D>;
      pool.count_inline();
    } else {
      void* block = pool.allocate(sizeof(D));
      ::new (block) D(std::forward<F>(fn));
      Pooled p{block, &pool};
      ::new (static_cast<void*>(buf_)) Pooled(p);
      vt_ = &kPooledVt<D>;
    }
  }

  EventClosure(EventClosure&& other) noexcept : vt_(other.vt_) {
    if (vt_) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      if (vt_) vt_->destroy(buf_);
      vt_ = other.vt_;
      if (vt_) {
        vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;

  ~EventClosure() {
    if (vt_) vt_->destroy(buf_);
  }

  void operator()() { vt_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  /// True when this (engaged) closure lives in the inline buffer.
  [[nodiscard]] bool is_inline() const noexcept {
    return vt_ && vt_->inline_storage;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src's object (inline) or
    /// copies the block pointer (pooled).  Never throws.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  struct Pooled {
    void* block;
    ClosurePool* pool;
  };

  template <typename D>
  static constexpr VTable kInlineVt{
      [](void* buf) { (*static_cast<D*>(buf))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* buf) noexcept { static_cast<D*>(buf)->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr VTable kPooledVt{
      [](void* buf) { (*static_cast<D*>(static_cast<Pooled*>(buf)->block))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Pooled(*static_cast<Pooled*>(src));
      },
      [](void* buf) noexcept {
        auto* p = static_cast<Pooled*>(buf);
        static_cast<D*>(p->block)->~D();
        p->pool->deallocate(p->block);
      },
      /*inline_storage=*/false,
  };

  const VTable* vt_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};

static_assert(sizeof(EventClosure) == EventClosure::kInlineSize +
                                          EventClosure::kInlineAlign,
              "one vtable pointer of overhead over the inline buffer");

}  // namespace refer::sim
