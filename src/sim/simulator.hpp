// Discrete-event simulation kernel: a clock and an event queue.
//
// This is the ns-2 replacement substrate (see DESIGN.md, Substitutions).
// Events are closures ordered by (time, insertion seq); the sequence
// tiebreak makes runs bit-deterministic for a fixed seed.
//
// The scheduling core is allocation-free at steady state (see
// docs/ARCHITECTURE.md, "Event engine"):
//   - Captures are stored in an EventClosure -- inline up to 64 bytes
//     (covers every lambda the codebase schedules), oversized captures
//     through a free-list ClosurePool owned by this simulator.
//   - Events are ordered by one binary heap (sim/event_queue.hpp,
//     O(log n) per operation) in strict (time, seq) order, whether they
//     are scheduled from inside the event loop or from outside it
//     between run_until calls.
//
// Observability: the kernel always tracks the peak event-queue depth
// (one compare per push).  Attaching a profiler (set_profiler) times the
// wall-clock execution of every event and records it into a per-tag
// histogram "sim.event_us.<tag>" of the given StatsRegistry -- the hook
// every hot-path optimisation PR reports through.  Tags are optional
// static strings passed at scheduling time; untagged events land in
// "sim.event_us.other".  Profiling costs two clock reads per event when
// attached and one branch when not.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/phase_profiler.hpp"
#include "sim/event_closure.hpp"
#include "sim/event_queue.hpp"

namespace refer {
class StatsRegistry;  // common/stats_registry.hpp
class Histogram;
}  // namespace refer

namespace refer::sim {

/// Simulation time in seconds.
using Time = double;

/// Event-driven simulator.  Single-threaded; protocols schedule closures.
class Simulator {
 public:
  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now()).  Events at
  /// equal times run in scheduling order.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    schedule_tagged(at, nullptr, std::forward<F>(fn));
  }

  /// Like schedule_at, with a profiling tag.  `tag` must outlive the
  /// simulator (pass a string literal); it only matters when a profiler
  /// is attached.
  template <typename F>
  void schedule_tagged(Time at, const char* tag, F&& fn) {
    schedule_event(at, tag, EventClosure(pool_, std::forward<F>(fn)));
  }

  /// Schedules `fn` to run `delay` seconds from now.
  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    schedule_tagged(now_ + delay, nullptr, std::forward<F>(fn));
  }
  template <typename F>
  void schedule_in_tagged(Time delay, const char* tag, F&& fn) {
    schedule_tagged(now_ + delay, tag, std::forward<F>(fn));
  }

  /// Runs events until the queue is empty or the next event is later than
  /// `until` (an event scheduled exactly at `until` still runs); the
  /// clock ends at max(now, until).
  void run_until(Time until);

  /// Runs everything in the queue.
  void run_all();

  /// Executes exactly one event if any is pending; returns whether one
  /// ran.  Benchmark/test hook for driving the kernel event by event.
  bool step();

  /// Number of events executed so far (for tests and sanity checks).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of events still pending.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// High-water mark of the event queue over the simulator's lifetime.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }

  /// Closure storage counters: inline vs. pooled captures, pool block
  /// traffic.  `pooled_closures == 0` is the capture-audit invariant the
  /// event-engine tests pin for every workload in the repo.
  [[nodiscard]] const ClosurePool::Stats& closure_stats() const noexcept {
    return pool_.stats();
  }

  /// Attaches a kernel profiler: each executed event's wall-time (µs) is
  /// recorded into `registry`'s histogram "sim.event_us.<tag>".  Pass
  /// nullptr to detach.  The registry must outlive the attachment.
  void set_profiler(StatsRegistry* registry);

  /// Attaches the wall-clock phase profiler: every executed event
  /// charges Phase::kKernelDispatch (common/phase_profiler.hpp).  Pass
  /// nullptr to detach; a disabled profiler costs one branch per event.
  void set_phase_profiler(PhaseProfiler* phases) noexcept {
    phase_profiler_ = phases;
  }

 private:
  void schedule_event(Time at, const char* tag, EventClosure fn);
  void execute(Event& ev);
  [[nodiscard]] Histogram* profile_histogram(const char* tag);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  StatsRegistry* profiler_ = nullptr;
  PhaseProfiler* phase_profiler_ = nullptr;
  /// Tag -> histogram cache; tags are interned by pointer (literals), so
  /// a small linear scan beats hashing.  Never allocates on the hit path.
  std::vector<std::pair<const char*, Histogram*>> profile_cache_;
  ClosurePool pool_;
  EventQueue queue_;
};

}  // namespace refer::sim
