#include "analysis/timeline_report.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/json_doc.hpp"
#include "common/cli_values.hpp"
#include "runner/schema_version.hpp"

namespace refer::analysis {

namespace {

constexpr const char* kProgram = "timeline_report";

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: timeline_report [--strict] [--dip-frac F] <results.json>...\n"
      "  --strict      exit 1 when any anomaly (knee or dip) is found\n"
      "  --dip-frac F  dip threshold as a fraction of the steady median "
      "(default: 0.7)\n");
}

/// Median of the non-negative entries (negative = missing data); 0 when
/// nothing remains.
double clean_median(const std::vector<double>& y, std::size_t skip) {
  std::vector<double> vals;
  for (std::size_t i = skip; i < y.size(); ++i) {
    if (y[i] >= 0) vals.push_back(y[i]);
  }
  if (vals.empty()) return 0;
  std::sort(vals.begin(), vals.end());
  const std::size_t n = vals.size();
  return n % 2 ? vals[n / 2] : 0.5 * (vals[n / 2 - 1] + vals[n / 2]);
}

/// Least-squares line fit of y[from..to) against its index; returns
/// {slope, sse}.
struct LineFit {
  double slope = 0;
  double sse = 0;
};

LineFit fit_line(const std::vector<double>& y, std::size_t from,
                 std::size_t to) {
  const double n = static_cast<double>(to - from);
  if (to - from < 2) return {};
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = from; i < to; ++i) {
    const double x = static_cast<double>(i);
    sx += x;
    sy += y[i];
    sxx += x * x;
    sxy += x * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LineFit fit;
  fit.slope = denom != 0 ? (n * sxy - sx * sy) / denom : 0;
  const double intercept = (sy - fit.slope * sx) / n;
  for (std::size_t i = from; i < to; ++i) {
    const double r = y[i] - (fit.slope * static_cast<double>(i) + intercept);
    fit.sse += r * r;
  }
  return fit;
}

double mean(const std::vector<double>& y, std::size_t from, std::size_t to) {
  if (to <= from) return 0;
  double s = 0;
  for (std::size_t i = from; i < to; ++i) s += y[i];
  return s / static_cast<double>(to - from);
}

void load_series_arrays(const JsonNode& ts, TimelineSeries& out) {
  out.bucket_s = ts.member_number("bucket_s", 0);
  out.start_s = ts.member_number("start_s", 0);
  out.window_s = ts.member_number("window_s", 0);
  out.late_samples = ts.member_number("late_samples", 0);
  out.qos_kbps = ts.member_numbers("qos_kbps");
  out.delivery_ratio = ts.member_numbers("delivery_ratio");
  out.queue_wait_mean_us = ts.member_numbers("queue_wait_mean_us");
  out.queue_wait_p95_us = ts.member_numbers("queue_wait_p95_us");
  out.channel_busy_fraction = ts.member_numbers("channel_busy_fraction");
  out.energy_rate_w = ts.member_numbers("energy_rate_w");
  out.app_loops_started = ts.member_numbers("app_loops_started");
  out.app_loops_ok = ts.member_numbers("app_loops_ok");
  if (const JsonNode* phases = ts.find("phase_us");
      phases && phases->is_object()) {
    for (const auto& [name, arr] : phases->members) {
      if (!arr.is_array()) continue;
      std::vector<double> values;
      values.reserve(arr.items.size());
      for (const JsonNode& v : arr.items) values.push_back(v.number_or(0));
      out.phase_us.emplace(name, std::move(values));
    }
  }
}

}  // namespace

std::vector<double> TimelineSeries::app_ok_ratio() const {
  std::vector<double> out(app_loops_started.size(), -1.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (app_loops_started[i] > 0 && i < app_loops_ok.size()) {
      out[i] = app_loops_ok[i] / app_loops_started[i];
    }
  }
  return out;
}

std::optional<TimelineDoc> load_timeline_doc(std::string_view json_text) {
  const std::optional<JsonNode> root = parse_json_doc(json_text);
  if (!root || !root->is_object()) return std::nullopt;
  TimelineDoc doc;
  doc.schema_version =
      static_cast<int>(root->member_number("schema_version", 0));
  // v4 added the timeseries section; older documents have none.
  if (doc.schema_version < 4 ||
      doc.schema_version > runner::kResultsSchemaVersion) {
    return std::nullopt;
  }
  if (const JsonNode* bench = root->find("benchmark")) {
    if (const std::string* s = bench->string_or_null()) doc.benchmark = *s;
  }
  const JsonNode* jobs = root->find("jobs_run");
  if (!jobs || !jobs->is_array()) return doc;  // valid, just empty
  for (const JsonNode& job : jobs->items) {
    const JsonNode* metrics = job.find("metrics");
    const JsonNode* ts = metrics ? metrics->find("timeseries") : nullptr;
    if (!ts || !ts->is_object()) continue;  // no timeline on this job
    TimelineSeries series;
    if (const JsonNode* sys = job.find("system")) {
      if (const std::string* s = sys->string_or_null()) series.system = *s;
    }
    if (const JsonNode* seed = job.find("seed")) {
      if (const std::string* s = seed->string_or_null()) {
        series.seed = *s;
      } else if (seed->kind == JsonNode::Kind::kNumber) {
        series.seed = std::to_string(
            static_cast<long long>(seed->number));
      }
    }
    series.x = job.member_number("x", 0);
    series.rep = static_cast<int>(job.member_number("rep", 0));
    load_series_arrays(*ts, series);
    if (series.qos_kbps.empty()) continue;
    doc.jobs.push_back(std::move(series));
  }
  return doc;
}

std::size_t detect_warmup(const std::vector<double>& y, double frac) {
  const double median = clean_median(y, 0);
  if (median <= 0) return 0;
  std::size_t warmup = 0;
  // At most half the series can be called warmup; beyond that the
  // "steady state" the median represents does not exist.
  const std::size_t cap = y.size() / 2;
  while (warmup < cap && y[warmup] >= 0 && y[warmup] < frac * median) {
    ++warmup;
  }
  return warmup;
}

Knee detect_knee(const std::vector<double>& y,
                 const std::vector<double>& queue_wait, std::size_t skip) {
  Knee knee;
  const std::size_t n = y.size();
  if (n < skip || n - skip < 6) return knee;  // too short to split
  const LineFit single = fit_line(y, skip, n);
  double best_sse = -1;
  std::size_t best_k = 0;
  LineFit best_a, best_b;
  // Each segment keeps >= 3 points so its slope means something.
  for (std::size_t k = skip + 2; k + 3 <= n; ++k) {
    const LineFit a = fit_line(y, skip, k + 1);  // shares the knee point
    const LineFit b = fit_line(y, k, n);
    const double sse = a.sse + b.sse;
    if (best_sse < 0 || sse < best_sse) {
      best_sse = sse;
      best_k = k;
      best_a = a;
      best_b = b;
    }
  }
  if (best_sse < 0) return knee;
  knee.bucket = best_k;
  knee.slope_before = best_a.slope;
  knee.slope_after = best_b.slope;
  knee.fit_gain = single.sse > 0 ? 1.0 - best_sse / single.sse : 0.0;
  // A saturation knee: the curve was genuinely rising, then flattened
  // (or fell), and the split actually explains the data.
  const double scale = clean_median(y, skip);
  const bool rising = knee.slope_before > 0.02 * std::max(scale, 1e-12);
  const bool flattened = knee.slope_after < 0.25 * knee.slope_before;
  knee.found = rising && flattened && knee.fit_gain >= 0.25;
  if (knee.found && queue_wait.size() == n) {
    const double before = mean(queue_wait, skip, best_k);
    const double after = mean(queue_wait, best_k, n);
    knee.queue_wait_grows = before >= 0 && after > 1.5 * before;
  }
  return knee;
}

std::vector<Dip> detect_dips(const std::vector<double>& y, double frac,
                             std::size_t skip) {
  std::vector<Dip> dips;
  const double baseline = clean_median(y, skip);
  if (baseline <= 0) return dips;
  const double threshold = frac * baseline;
  std::size_t i = skip;
  while (i < y.size()) {
    if (y[i] < 0 || y[i] >= threshold) {
      ++i;
      continue;
    }
    Dip dip;
    dip.from = i;
    dip.deepest = i;
    dip.baseline = baseline;
    double deepest_value = y[i];
    while (i < y.size() && y[i] >= 0 && y[i] < threshold) {
      if (y[i] < deepest_value) {
        deepest_value = y[i];
        dip.deepest = i;
      }
      dip.to = i;
      ++i;
    }
    dip.depth_frac = deepest_value / baseline;
    dips.push_back(dip);
  }
  return dips;
}

TimelineReport analyze_timelines(const TimelineDoc& doc,
                                 const ReportOptions& options) {
  TimelineReport report;
  char buf[256];
  for (std::size_t j = 0; j < doc.jobs.size(); ++j) {
    const TimelineSeries& s = doc.jobs[j];
    SeriesFindings f;
    f.job = j;
    f.warmup_buckets = detect_warmup(s.qos_kbps);
    f.knee = detect_knee(s.qos_kbps, s.queue_wait_mean_us, f.warmup_buckets);
    f.qos_dips = detect_dips(s.qos_kbps, options.dip_frac, f.warmup_buckets);
    if (!s.app_loops_started.empty()) {
      f.app_dips = detect_dips(s.app_ok_ratio(), options.dip_frac);
    }
    // Drain-period deliveries always produce a few late samples; they
    // are informational (printed), not anomalies (strict-gated).
    f.late_samples = s.late_samples > 0;

    const auto at = [&s](std::size_t b) {
      return s.start_s + static_cast<double>(b) * s.bucket_s;
    };
    if (f.knee.found) {
      std::snprintf(buf, sizeof buf,
                    "saturation knee at bucket %zu (t=%.0f s): slope "
                    "%.3g -> %.3g kbps/bucket%s",
                    f.knee.bucket, at(f.knee.bucket), f.knee.slope_before,
                    f.knee.slope_after,
                    f.knee.queue_wait_grows ? ", queue wait growing" : "");
      f.anomalies.emplace_back(buf);
    }
    for (const Dip& d : f.qos_dips) {
      std::snprintf(buf, sizeof buf,
                    "throughput dip buckets %zu-%zu (t=%.0f-%.0f s), "
                    "deepest %zu at %.0f%% of baseline %.3g kbps",
                    d.from, d.to, at(d.from), at(d.to + 1), d.deepest,
                    100.0 * d.depth_frac, d.baseline);
      f.anomalies.emplace_back(buf);
    }
    for (const Dip& d : f.app_dips) {
      std::snprintf(buf, sizeof buf,
                    "app-loop dip buckets %zu-%zu (t=%.0f-%.0f s), "
                    "deepest %zu: completion %.0f%% of baseline %.2f",
                    d.from, d.to, at(d.from), at(d.to + 1), d.deepest,
                    100.0 * d.depth_frac, d.baseline);
      f.anomalies.emplace_back(buf);
    }
    report.anomaly_count += f.anomalies.size();
    report.findings.push_back(std::move(f));
  }
  return report;
}

int print_timeline_report(std::FILE* out, const TimelineDoc& doc,
                          const TimelineReport& report,
                          const ReportOptions& options) {
  std::fprintf(out, "timeline_report: schema v%d%s%s, %zu job(s) with "
               "timelines\n",
               doc.schema_version,
               doc.benchmark.empty() ? "" : ", benchmark ",
               doc.benchmark.c_str(), doc.jobs.size());
  for (const SeriesFindings& f : report.findings) {
    const TimelineSeries& s = doc.jobs[f.job];
    std::fprintf(out, "\n%s seed=%s x=%g rep=%d (%zu buckets of %g s)\n",
                 s.system.c_str(), s.seed.c_str(), s.x, s.rep,
                 s.qos_kbps.size(), s.bucket_s);
    if (f.warmup_buckets > 0) {
      std::fprintf(out, "  warmup: %zu bucket(s)\n", f.warmup_buckets);
    }
    if (!s.phase_us.empty()) {
      std::fprintf(out, "  wall-clock phases (total us):");
      for (const auto& [name, values] : s.phase_us) {
        double total = 0;
        for (const double v : values) total += v;
        std::fprintf(out, " %s=%.0f", name.c_str(), total);
      }
      std::fprintf(out, "\n");
    }
    if (f.late_samples) {
      std::fprintf(out, "  note: %.0f sample(s) landed in the drain "
                   "period past the window\n",
                   s.late_samples);
    }
    if (f.anomalies.empty()) {
      std::fprintf(out, "  clean\n");
    } else {
      for (const std::string& a : f.anomalies) {
        std::fprintf(out, "  ANOMALY: %s\n", a.c_str());
      }
    }
  }
  std::fprintf(out, "\n%zu anomal%s found%s\n", report.anomaly_count,
               report.anomaly_count == 1 ? "y" : "ies",
               options.strict && report.anomaly_count ? " (strict: FAIL)"
                                                      : "");
  return options.strict && report.anomaly_count ? 1 : 0;
}

ReportCommand parse_report_command(int argc, char** argv) {
  ReportCommand cmd;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      cmd.options.strict = true;
    } else if (arg == "--dip-frac") {
      if (i + 1 >= argc) cli::usage_error(kProgram, arg + " requires a value");
      const char* raw = argv[++i];
      cmd.options.dip_frac = cli::numeric_value(kProgram, arg, raw);
      if (!(cmd.options.dip_frac > 0 && cmd.options.dip_frac < 1)) {
        cli::usage_error(kProgram, arg + ": expected a number in (0, 1), got '" +
                                       raw + "'");
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      cli::usage_error(kProgram, "unknown flag: " + arg);
    } else {
      cmd.files.push_back(arg);
    }
  }
  if (cmd.files.empty()) cli::usage_error(kProgram, "no results file given");
  return cmd;
}

}  // namespace refer::analysis
