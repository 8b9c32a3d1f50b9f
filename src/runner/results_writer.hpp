// Structured results layer: one versioned JSON document per benchmark
// run, so BENCH_*.json perf trajectories are first-class instead of
// scraped ASCII tables.
//
// Schema version 6.  v6 drops the per-job "qos_timeline_kbps" array,
// a byte-for-byte copy of "timeseries.qos_kbps"; readers (tools
// timeline_report, tools/plot_figures.py) load v4 and later.  The
// "scenario" object holds every field of harness::for_each_field, in
// table order, then "trace_dir"; "timeseries" exists only on jobs whose
// scenario asked for a timeline (timeline_bucket_s > 0), its phase keys
// only when phase_profile was on:
//   {
//     "schema_version": 6,
//     "tool": "referbench",
//     "benchmark": "fig04",
//     "title": "...",
//     "git": "<git describe at configure time>",
//     "jobs": 4, "repetitions": 3, "wall_s": 12.3,
//     "scenario": { <harness::for_each_field keys>, "trace_dir":.. },
//     "systems": ["REFER", "DaTree", "D-DEAR", "Kautz-overlay"],
//     "jobs_run": [ {"x":.., "system":"REFER", "rep":0, "seed":1,
//                    "wall_ms":.., "metrics": { <every RunMetrics
//                    field, incl. delay_p50/p95/p99_ms>,
//                    "timeseries": {"bucket_s":.., "start_s":..,
//                      "window_s":.., "top_k":3, "late_samples":..,
//                      "sent":[..], "delivered":[..],
//                      "qos_delivered":[..], "qos_kbps":[..],
//                      "delivery_ratio":[..], "failovers":[..],
//                      "delay_p50_ms":[..], "delay_p95_ms":[..],
//                      "queue_wait_mean_us":[..],
//                      "queue_wait_p95_us":[..],
//                      "channel_busy_fraction":[..],
//                      "energy_rate_w":[..], "event_queue_depth":[..],
//                      "route_cache_hit_rate":[..],
//                      "app_loops_started":[..], "app_loops_ok":[..],
//                      "app_loop_mean_ms":[..],
//                      "top_airtime": [[{"node":..,"rate":..},..],..],
//                      "top_energy": [[{"node":..,"rate_w":..},..],..],
//                      "phase_us": {"medium_scan":[..], ...},
//                      "phase_total_us": {"medium_scan":.., ...}},
//                    "observability": [
//                      {"name":"router.failovers","kind":"counter",
//                       "count":17},
//                      {"name":"delivery.delay_ms","kind":"histogram",
//                       "n":..,"sum":..,"min":..,"max":..,
//                       "p50":..,"p95":..,"p99":..}, ... ] }}, ... ],
//     "series": [ {"x_label":"...", "points": [ {"x":..,
//                  "by_system": [ {"system":"REFER",
//                    "qos_throughput_kbps": {"n":..,"mean":..,
//                      "ci95":..,"min":..,"max":..}, ... } ] } ] } ]
//   }
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "runner/schema_version.hpp"

namespace refer::runner {

/// `git describe --always --dirty` captured when the build was
/// configured ("unknown" outside a git checkout).
[[nodiscard]] const char* git_describe() noexcept;

class ResultsWriter {
 public:
  ResultsWriter();

  void set_tool(std::string tool) { tool_ = std::move(tool); }
  void set_benchmark(std::string name, std::string title = {}) {
    benchmark_ = std::move(name);
    title_ = std::move(title);
  }
  void set_jobs(int jobs) { jobs_ = jobs; }
  void set_repetitions(int repetitions) { repetitions_ = repetitions; }
  void set_wall_s(double wall_s) { wall_s_ = wall_s; }
  void set_scenario(const harness::Scenario& scenario) {
    scenario_ = scenario;
    has_scenario_ = true;
  }

  /// Appends per-run_once job records (deterministic order preserved).
  void add_records(const std::vector<harness::JobRecord>& records);

  /// Appends one aggregated sweep series.
  void add_series(const std::string& x_label,
                  const std::vector<harness::SweepPoint>& points);

  /// Renders the full document (always valid JSON, even when empty).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false when the file cannot be opened or
  /// written in full (a full disk included).
  bool write(const std::string& path) const;

 private:
  struct Series {
    std::string x_label;
    std::vector<harness::SweepPoint> points;
  };

  std::string tool_ = "referbench";
  std::string benchmark_;
  std::string title_;
  int jobs_ = 1;
  int repetitions_ = 0;
  double wall_s_ = 0;
  bool has_scenario_ = false;
  harness::Scenario scenario_;
  std::vector<harness::JobRecord> records_;
  std::vector<Series> series_;
};

}  // namespace refer::runner
