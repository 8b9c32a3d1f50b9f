// Shared plumbing for the figure/ablation reproductions behind the
// unified `referbench` CLI (tools/referbench_main.cpp).
//
// Every sweep bench prints the same series the corresponding paper
// figure plots: one row per x value, one column per system,
// "mean +- 95% CI" over repeated seeds.  Absolute values are not
// comparable to the paper (our substrate is a scaled-down simulator;
// see DESIGN.md) -- the reproduction target is the *shape*: ordering,
// trends, crossovers.
//
// Flags (all optional):
//   --reps N        seeds per point                  (default 3)
//   --measure S     measurement window, seconds      (default 60)
//   --pps P         packets per second per source    (default 10)
//   --bytes B       packet size in bytes             (default 2500)
//   --seed S        base scenario seed               (default 1)
//   --jobs N        parallel (system, x, seed) jobs; 0 = all cores
//   --csv PREFIX    also write PREFIX_<metric>.csv for plotting
//   --json PATH     structured results document (runner::ResultsWriter)
//   --trace DIR     write one JSONL trace per (system, x, seed) job to
//                   DIR/<bench>/ (analyze with tools trace_report)
//   --profile       attach the kernel profiler (per-event-tag wall-time
//                   histograms in the observability section)
//   --timeline S    record the flight-recorder timeseries with bucket
//                   width S seconds (schema v4 "timeseries" section;
//                   analyze with tools timeline_report)
//   --phase-profile attach the wall-clock phase profiler (per-bucket
//                   phase_us in the timeseries; wall time is
//                   nondeterministic, so off by default)
//   --routing-policy greedy|regular  REFER intra-cell routing protocol
//                   (default greedy, the paper's SIII-C2 shortest
//                   paths; regular = Faber-Streib all-to-all walks
//                   with Theorem 3.8 fail-over)
//   --quick         reps=1, measure=45 (CI smoke runs)
//   --full          reps=5, measure=200 (closer to paper scale)
//
// Unknown flags, missing values, out-of-range integers (--reps >= 1,
// --jobs >= 0, --bytes >= 1, --seed any uint64) and real values that
// are not finite and > 0 (--measure, --pps, --timeline) are rejected
// with exit code 2 -- a typo must never silently run a different
// experiment.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/cli_values.hpp"
#include "harness/experiment.hpp"
#include "runner/parallel_executor.hpp"
#include "runner/results_writer.hpp"

namespace refer::bench {

struct BenchOptions {
  int reps = 3;
  int jobs = 1;            ///< worker threads; 0 = one per hardware thread
  std::string csv_prefix;  ///< when set, each table is also written as CSV
  std::string json_path;   ///< when set, a results JSON is written per bench
  std::string trace_dir;   ///< when set, per-job JSONL traces land here
  harness::Scenario base;
};

[[noreturn]] inline void usage_error(const std::string& message) {
  cli::usage_error("referbench", message);
}

/// The shared flag-value parsers (common/cli_values.hpp), reporting as
/// referbench: parse_options below and `referbench fuzz` use these.
inline double positive_value(const std::string& flag, const char* raw) {
  return cli::positive_value("referbench", flag, raw);
}
template <typename Int>
Int integer_value(const std::string& flag, const char* raw, Int min) {
  return cli::integer_value("referbench", flag, raw, min);
}

/// Strict flag parser: exits with code 2 on an unknown flag, a flag
/// missing its value, or a non-numeric or out-of-range value.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opt;
  opt.base.warmup_s = 10;
  opt.base.measure_s = 60;
  opt.base.packets_per_second = 10;
  opt.base.seed = 1;
  auto string_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage_error(std::string(argv[i]) + " requires a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps") {
      opt.reps = integer_value(arg, string_value(i), 1);
    } else if (arg == "--measure") {
      opt.base.measure_s = positive_value(arg, string_value(i));
    } else if (arg == "--pps") {
      opt.base.packets_per_second = positive_value(arg, string_value(i));
    } else if (arg == "--bytes") {
      opt.base.packet_bytes =
          integer_value(arg, string_value(i), std::size_t{1});
    } else if (arg == "--seed") {
      opt.base.seed = integer_value(arg, string_value(i), std::uint64_t{0});
    } else if (arg == "--jobs") {
      opt.jobs = integer_value(arg, string_value(i), 0);
    } else if (arg == "--csv") {
      opt.csv_prefix = string_value(i);
    } else if (arg == "--json") {
      opt.json_path = string_value(i);
    } else if (arg == "--trace") {
      opt.trace_dir = string_value(i);
    } else if (arg == "--profile") {
      opt.base.profile = true;
    } else if (arg == "--timeline") {
      opt.base.timeline_bucket_s = positive_value(arg, string_value(i));
    } else if (arg == "--phase-profile") {
      opt.base.phase_profile = true;
    } else if (arg == "--routing-policy") {
      const std::string value = string_value(i);
      if (!harness::parse_routing_policy(value, opt.base.routing_policy)) {
        usage_error("--routing-policy: expected greedy or regular, got '" +
                    value + "'");
      }
    } else if (arg == "--quick") {
      opt.reps = 1;
      opt.base.measure_s = 45;
    } else if (arg == "--full") {
      opt.reps = 5;
      opt.base.measure_s = 200;
    } else {
      usage_error("unknown flag: " + arg);
    }
  }
  return opt;
}

/// Per-bench run state handed to every registered bench function: the
/// parsed options, the parallel executor the bench should route its
/// simulations through, and the results document being accumulated.
struct Context {
  Context(BenchOptions options, std::string bench_name)
      : opt(std::move(options)),
        name(std::move(bench_name)),
        executor(opt.jobs) {
    if (!opt.trace_dir.empty()) {
      // One trace directory per bench; every decomposed job writes its
      // own <system>_x<x>_rep<rep>.jsonl inside it.
      opt.base.trace_dir = opt.trace_dir + "/" + name;
      std::filesystem::create_directories(opt.base.trace_dir);
    }
    results.set_tool("referbench");
    results.set_benchmark(name);
    results.set_jobs(executor.jobs());
    results.set_repetitions(opt.reps);
    results.set_scenario(opt.base);
  }

  BenchOptions opt;
  std::string name;
  runner::ParallelExecutor executor;
  runner::ResultsWriter results;
};

/// Runs a sweep through the context's executor and records the
/// aggregated series (all metrics) into the results document.
inline std::vector<harness::SweepPoint> run_sweep(
    Context& ctx, const harness::Scenario& base, const std::vector<double>& xs,
    const std::function<void(harness::Scenario&, double)>& configure,
    const std::string& x_label) {
  auto points = ctx.executor.sweep(base, xs, configure, ctx.opt.reps);
  ctx.results.add_series(x_label, points);
  return points;
}

/// Prints the table and, with --csv, writes it as PREFIX_<slug>.csv.
inline void emit_series(const Context& ctx, const std::string& title,
                        const std::string& x_label,
                        const std::string& y_label, const std::string& slug,
                        const std::vector<harness::SweepPoint>& points,
                        const std::function<Summary(
                            const harness::AggregateMetrics&)>& select) {
  harness::print_series_table(title, x_label, y_label, points, select);
  if (!ctx.opt.csv_prefix.empty()) {
    const std::string path = ctx.opt.csv_prefix + "_" + slug + ".csv";
    if (harness::write_series_csv(path, x_label, points, select)) {
      std::printf("(csv written to %s)\n", path.c_str());
    }
  }
}

inline void print_header(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", figure, what);
  std::printf("==============================================================\n");
}

}  // namespace refer::bench
