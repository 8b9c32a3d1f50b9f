#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace refer::sim {

namespace {

/// std::*_heap comparator: "less" orders the (at, seq)-minimum to the
/// front of the max-heap.
struct Later {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return runs_before(b, a);
  }
};

}  // namespace

void EventQueue::push(Event&& ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Event EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

}  // namespace refer::sim
