// Offline timeline analyzer: reads the flight-recorder series out of a
// results JSON document (runner/results_writer, schema v4 or later) and
// looks for the time-resolved signatures the aggregate metrics average
// away (tools/timeline_report):
//
//   1. Warmup: the leading buckets where throughput is still climbing
//      to steady state -- excluded from the other detectors.
//   2. Saturation knee: a two-segment least-squares fit over the QoS
//      throughput curve; a knee is reported where throughput stops
//      growing (slope collapses) while the MAC queue wait keeps
//      growing -- the classic saturation signature (ROADMAP open item:
//      the paper's load sweep hides *when* a run saturates).
//   3. Recovery dips: contiguous bucket runs where a series drops below
//      a fraction of its steady-state median -- QoS throughput dips
//      (topology damage) and app-loop completion dips (actuator
//      faults; bucketed by sense time, so a dip localizes the fault
//      window itself, e.g. the scripted "0@30+12" schedule).
//
// Schemas v4 (the first with a timeseries section) to v6 load; the
// analyzer runs whatever detectors a job's series allow.  --strict
// exits non-zero when any anomaly (knee or dip) survives, so CI can
// gate on "this run saturated / dipped".  Late samples (drain-period
// deliveries) are routine and only reported informationally.
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace refer::analysis {

/// One job's flight-recorder series, plus the job row identity.
struct TimelineSeries {
  std::string system;
  std::string seed;
  double x = 0;
  int rep = 0;

  double bucket_s = 0;  ///< 0 when the job carried no timeline at all
  double start_s = 0;
  double window_s = 0;
  double late_samples = 0;

  std::vector<double> qos_kbps;
  std::vector<double> delivery_ratio;
  std::vector<double> queue_wait_mean_us;
  std::vector<double> queue_wait_p95_us;
  std::vector<double> channel_busy_fraction;
  std::vector<double> energy_rate_w;
  std::vector<double> app_loops_started;
  std::vector<double> app_loops_ok;
  std::map<std::string, std::vector<double>> phase_us;  ///< when profiled

  /// Per-bucket app_loops_ok / app_loops_started; -1 marks buckets with
  /// no loops (neither baseline nor dip material).
  [[nodiscard]] std::vector<double> app_ok_ratio() const;
};

struct TimelineDoc {
  int schema_version = 0;
  std::string benchmark;
  std::vector<TimelineSeries> jobs;  ///< only jobs that carried a timeline
};

/// Parses a results document; nullopt on malformed JSON or a missing /
/// schema_version outside 4..6.  Jobs without a timeseries are skipped.
[[nodiscard]] std::optional<TimelineDoc> load_timeline_doc(
    std::string_view json_text);

/// Number of leading buckets below `frac` of the series median -- the
/// ramp to steady state.  Negative entries (missing data) end the scan.
[[nodiscard]] std::size_t detect_warmup(const std::vector<double>& y,
                                        double frac = 0.5);

/// A two-segment piecewise-linear fit of `y` against bucket index.
struct Knee {
  bool found = false;
  std::size_t bucket = 0;     ///< index where the second segment starts
  double slope_before = 0;    ///< per-bucket units
  double slope_after = 0;
  double fit_gain = 0;        ///< 1 - sse(two segments)/sse(one line)
  bool queue_wait_grows = false;  ///< corroboration (needs queue waits)
};

/// Fits every split point and keeps the best; a knee is `found` when the
/// curve was genuinely rising (slope_before > 0), flattens to under a
/// quarter of that slope, and the split explains >= 25% of the single-
/// line residual.  `queue_wait` may be empty; when present, the
/// knee is additionally marked corroborated when the mean queue wait
/// after the knee exceeds 1.5x the mean before it.
[[nodiscard]] Knee detect_knee(const std::vector<double>& y,
                               const std::vector<double>& queue_wait,
                               std::size_t skip = 0);

/// A contiguous run of buckets below `frac` of the steady median.
struct Dip {
  std::size_t from = 0;     ///< first dipped bucket
  std::size_t to = 0;       ///< last dipped bucket (inclusive)
  std::size_t deepest = 0;  ///< argmin bucket
  double depth_frac = 0;    ///< y[deepest] / baseline (0 = total outage)
  double baseline = 0;      ///< steady-state median the run is judged by
};

/// Scans y[skip..] for maximal sub-baseline runs.  Negative entries
/// (missing data) are skipped: they neither join a dip nor the
/// baseline.  Returns dips in time order.
[[nodiscard]] std::vector<Dip> detect_dips(const std::vector<double>& y,
                                           double frac = 0.7,
                                           std::size_t skip = 0);

struct ReportOptions {
  double dip_frac = 0.7;  ///< dip threshold as a fraction of the median
  bool strict = false;    ///< non-zero exit on any anomaly
};

/// timeline_report's command line: `[--strict] [--dip-frac F]
/// <results.json>...`.
struct ReportCommand {
  ReportOptions options;
  std::vector<std::string> files;
};

/// Parses timeline_report's arguments (argv[0] is the program).  Prints
/// the usage and exits 0 on --help; exits 2 on an unknown flag, a
/// missing value, no input file, or a --dip-frac that is not wholly a
/// number strictly between 0 and 1.
[[nodiscard]] ReportCommand parse_report_command(int argc, char** argv);

/// Everything found in one job's series.
struct SeriesFindings {
  std::size_t job = 0;  ///< index into TimelineDoc::jobs
  std::size_t warmup_buckets = 0;
  Knee knee;
  std::vector<Dip> qos_dips;
  std::vector<Dip> app_dips;
  bool late_samples = false;  ///< informational only, never an anomaly
  /// Human-readable anomaly lines; empty = this job is clean.
  std::vector<std::string> anomalies;
};

struct TimelineReport {
  std::vector<SeriesFindings> findings;  ///< one per TimelineDoc job
  std::size_t anomaly_count = 0;
};

[[nodiscard]] TimelineReport analyze_timelines(const TimelineDoc& doc,
                                               const ReportOptions& options);

/// Prints the per-job findings and a summary; returns the process exit
/// code (0 clean; 1 under options.strict with anomalies).
int print_timeline_report(std::FILE* out, const TimelineDoc& doc,
                          const TimelineReport& report,
                          const ReportOptions& options);

}  // namespace refer::analysis
