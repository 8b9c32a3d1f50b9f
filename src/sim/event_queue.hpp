// Event ordering structure for the DES kernel.
//
// EventQueue is a binary heap over a plain vector, driven by
// std::push_heap/pop_heap: O(log n) per operation, dequeue is
// pop-then-execute, and the total order is (time, insertion seq),
// ascending, so runs are bit-deterministic for a fixed seed (pinned by
// tests/event_engine_test.cpp).  It does not allocate at steady state:
// the vector keeps its capacity once the population peaks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_closure.hpp"

namespace refer::sim {

/// One scheduled closure.  Ordered by (at, seq); seq is the scheduling
/// sequence number, which makes equal-time execution FIFO and runs
/// bit-deterministic for a fixed seed.
struct Event {
  double at = 0;
  std::uint64_t seq = 0;
  const char* tag = nullptr;
  EventClosure fn;
};

/// True when a must run strictly before b.
[[nodiscard]] inline bool runs_before(const Event& a, const Event& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

/// Binary min-heap of events under runs_before.
class EventQueue {
 public:
  void push(Event&& ev);
  /// Removes and returns the (at, seq)-minimum.  Precondition: !empty().
  Event pop();
  /// Time of the next event.  Precondition: !empty().
  [[nodiscard]] double next_time() const noexcept { return heap_[0].at; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

 private:
  std::vector<Event> heap_;
};

}  // namespace refer::sim
