// Deterministic actuator fault schedules for the application layer.
//
// A fault window is an application-tier outage of one actuator: the
// node's radio keeps routing (REFER cells and the baselines are
// untouched), but its actuation process is down, so keepalives lapse
// and commands cannot be issued until the window closes.  Windows come
// from two sources that compose:
//
//   - Scenario::app_fault_schedule, a scripted string
//     "idx@start+duration;idx@start+duration" with times in seconds
//     relative to the workload start t0 (a flat string keeps the
//     repro.json format nesting-free), and
//   - Scenario::app_break_rate_hz, Poisson-arrival breaks per actuator
//     with a fixed repair downtime (SmartOrchard's break/repair loop,
//     made deterministic by drawing from the run's seeded Rng).
//
// merge_windows() normalises the combined set (sorted, overlaps
// coalesced per actuator) so broken_time_in() can integrate actuator
// unavailability exactly -- the availability metric is a pure function
// of the schedule, not of sampling.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace refer::app {

/// One application-tier outage of one actuator (times relative to t0).
struct FaultWindow {
  int actuator_index = 0;  ///< index into the deployment's actuator list
  double start_rel_s = 0;
  double duration_s = 0;

  [[nodiscard]] double end_rel_s() const noexcept {
    return start_rel_s + duration_s;
  }
  [[nodiscard]] bool covers(double rel_s) const noexcept {
    return rel_s >= start_rel_s && rel_s < end_rel_s();
  }
};

/// Parses "idx@start+duration;..." (whitespace-free; empty string = no
/// windows).  Returns false -- leaving `out` untouched -- on malformed
/// entries: an index that is not a decimal int >= 0, a start that is not
/// a finite decimal >= 0, or a duration that is not a finite decimal > 0.
[[nodiscard]] bool parse_fault_schedule(const std::string& text,
                                        std::vector<FaultWindow>& out);

/// Renders windows back into the scripted-string form ("%g" times).
[[nodiscard]] std::string format_fault_schedule(
    const std::vector<FaultWindow>& windows);

/// Poisson break/repair windows: per actuator, up-time gaps are
/// Exp(1 / break_rate_hz) and every break lasts repair_s, until
/// horizon_rel_s.  Deterministic given the Rng state; actuators are
/// visited in index order so the draw sequence is reproducible.
[[nodiscard]] std::vector<FaultWindow> poisson_fault_windows(
    int n_actuators, double break_rate_hz, double repair_s,
    double horizon_rel_s, Rng& rng);

/// Sorts by (actuator, start) and coalesces overlapping / touching
/// windows of the same actuator.
[[nodiscard]] std::vector<FaultWindow> merge_windows(
    std::vector<FaultWindow> windows);

/// Total broken actuator-seconds inside [from_rel_s, to_rel_s), summed
/// over all actuators.  Expects merged windows (overlaps would double
/// count).
[[nodiscard]] double broken_time_in(const std::vector<FaultWindow>& windows,
                                    double from_rel_s, double to_rel_s);

}  // namespace refer::app
