#include "sim/simulator.hpp"

#include <cassert>
#include <chrono>
#include <string>

#include "common/stats_registry.hpp"

namespace refer::sim {

void Simulator::schedule_event(Time at, const char* tag, EventClosure fn) {
  assert(at >= now_);
  queue_.push(Event{at, next_seq_++, tag, std::move(fn)});
  const std::size_t depth = pending();
  if (depth > peak_pending_) peak_pending_ = depth;
}

void Simulator::set_profiler(StatsRegistry* registry) {
  profiler_ = registry;
  profile_cache_.clear();
}

Histogram* Simulator::profile_histogram(const char* tag) {
  for (const auto& [t, h] : profile_cache_) {
    if (t == tag) return h;
  }
  Histogram* h = &profiler_->histogram(
      std::string("sim.event_us.") + (tag ? tag : "other"));
  profile_cache_.emplace_back(tag, h);
  return h;
}

void Simulator::execute(Event& ev) {
  now_ = ev.at;
  ++executed_;
  // Wall-clock attribution: every executed event charges the kernel
  // dispatch phase (inclusive of the subsystem phases it nests).
  PhaseProfiler::Scope phase(phase_profiler_, Phase::kKernelDispatch);
  if (profiler_) {
    const auto t0 = std::chrono::steady_clock::now();
    ev.fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    profile_histogram(ev.tag)->record(us);
  } else {
    ev.fn();
  }
}

void Simulator::run_until(Time until) {
  while (pending() != 0 && queue_.next_time() <= until) {
    // Pop before executing: the event may schedule more events.
    Event ev = queue_.pop();
    execute(ev);
  }
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  while (pending() != 0) {
    Event ev = queue_.pop();
    execute(ev);
  }
}

bool Simulator::step() {
  if (pending() == 0) return false;
  Event ev = queue_.pop();
  execute(ev);
  return true;
}

}  // namespace refer::sim
