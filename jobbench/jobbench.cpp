// jobbench: host-time benchmark driver over harness::run_once.
//
// Runs the jobs of one named workload (a seed-drawn sample of its
// scenario-seed pool times the systems under test) and times each on the
// host.  Each round runs every job:
//   full     -- the job as configured, carrying one read-only probe event
//               at the simulated instant its topology is built (given by
//               --built-at from the committed reference), so one run
//               yields both the whole-job wall and the host time until
//               traffic could start;
//   traced   -- with --trace 1: probes at every stage boundary split the
//               job into contiguous spans (wire, construct, warmup,
//               measure, drain, teardown), and the kernel profiler, phase
//               profiler and flight recorder are on.
// With --trace 1, each job first runs once as
//   discover -- zero warmup and measure window and the app tier off, so
//               no traffic is scheduled: its counters are the
//               construction-only work.
// Rounds repeat, in a rotating job order, until --seconds is used up (at
// least kMinRounds).
//
// Every run executes in a forked child, so no run inherits heap state
// (or leaked memory) from an earlier one and each reports its own peak
// resident set.  Each child prints one JSON line describing its run on
// stdout; run.py checks the simulated outcomes against the committed
// reference and turns the timings into the benchmark report.
//
//   jobbench --workload saturation|dense_build|churn --seed N --seconds S
//            [--trace 0|1] [--built-at job=seconds,...] [--rounds N]
//            [--whole-pool 0|1] [--held-out 0|1]
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/phase_profiler.hpp"
#include "harness/experiment.hpp"
#include "runner/json.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace {

using refer::harness::RoutingPolicy;
using refer::harness::RunMetrics;
using refer::harness::Scenario;
using refer::harness::SystemKind;
using Clock = std::chrono::steady_clock;

/// Drain the harness runs after the measure window (Driver::run).
constexpr double kDrainS = 2.0;
constexpr int kMinRounds = 3;

struct Job {
  std::string name;  ///< "<system>[/regular]@<scenario seed>"
  SystemKind system = SystemKind::kRefer;
  Scenario scenario;
};

struct WorkloadSpec {
  Scenario scenario;
  /// Scenario seeds are drawn from 1..pool, or from pool+1..2*pool for a
  /// held-out run; the committed reference holds the outcome of every job
  /// for every seed of both pools.
  int pool = 10;
  int seeds_per_run = 9;
  bool with_regular = false;  ///< add REFER under routing_policy=regular
};

/// The three workloads.  README.md says why each was chosen and which
/// layers it loads.
bool workload_spec(const std::string& name, WorkloadSpec& spec) {
  Scenario sc;  // paper geometry: 500 m side, 5 actuators, 200 sensors
  sc.warmup_s = 10;
  if (name == "saturation") {
    sc.packets_per_second = 40;
    sc.measure_s = 60;
    spec.with_regular = true;
  } else if (name == "dense_build") {
    sc.n_sensors = 1600;
    sc.sensor_spread_m = 220.0 * std::sqrt(1600 / 200.0);
    sc.measure_s = 10;
    // One scenario: per-seed host cost of the traffic part varies by
    // ~25%, and a 1600-node job is too long to average over seeds.
    spec.pool = 1;
    spec.seeds_per_run = 1;
  } else if (name == "churn") {
    sc.measure_s = 120;
    sc.faulty_nodes = 10;
    sc.fault_period_s = 10;
    sc.loss_probability = 0.02;
    sc.app_enabled = true;
    sc.app_break_rate_hz = 0.01;
    sc.timeline_bucket_s = 10;
  } else {
    return false;
  }
  spec.scenario = sc;
  return true;
}

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// selects never change with the simulator's RNG.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The scenario seeds a run uses: `k` distinct draws from
/// first..first+pool-1 (partial Fisher-Yates), in ascending order.
std::vector<std::uint64_t> scenario_seeds(std::uint64_t seed, int first,
                                          int pool, int k) {
  std::vector<std::uint64_t> all;
  for (int i = 0; i < pool; ++i) {
    all.push_back(static_cast<std::uint64_t>(first + i));
  }
  std::uint64_t state = seed;
  for (int i = 0; i < k; ++i) {
    const auto left = static_cast<std::uint64_t>(pool - i);
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(i) + splitmix64(state) % left]);
  }
  all.resize(static_cast<std::size_t>(k));
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<Job> make_jobs(const WorkloadSpec& spec,
                           const std::vector<std::uint64_t>& seeds) {
  std::vector<Job> jobs;
  for (const std::uint64_t seed : seeds) {
    Scenario sc = spec.scenario;
    sc.seed = seed;
    const std::string at = std::to_string(seed);
    for (SystemKind kind : refer::harness::kAllSystems) {
      jobs.push_back(
          {std::string(refer::harness::to_string(kind)) + '@' + at, kind, sc});
    }
    if (spec.with_regular) {
      Scenario reg = sc;
      reg.routing_policy = RoutingPolicy::kRegular;
      jobs.push_back({std::string("REFER/regular@") + at, SystemKind::kRefer,
                      reg});
    }
  }
  return jobs;
}

/// The same deployment with no traffic: construction only.
Scenario setup_scenario(Scenario sc) {
  sc.warmup_s = 0;
  sc.measure_s = 0;
  sc.app_enabled = false;
  sc.timeline_bucket_s = 0;
  return sc;
}

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Stamps the host clock when the run is wired (on_run_start) and, via
/// read-only probe events, at each simulated instant in `at` (the first is
/// the build-end instant); records the simulated time the run ended.
///
/// Only the first probe is scheduled up front.  Once the topology is
/// built, the harness schedules the workload from outside the event loop,
/// and the calendar queue can run those events out of order when another
/// event is pending then (README.md, "Probe placement").  So the first
/// probe arms a tracer tap; the first record emitted after the build-end
/// instant, which comes from inside the event loop, schedules the
/// remaining probes one at a time and an event that removes the tap.
class StageProbe final : public refer::harness::RunObserver {
 public:
  explicit StageProbe(std::vector<double> at) : at_(std::move(at)) {
    marks.resize(at_.size());
  }

  void on_run_start(const refer::harness::RunContext& ctx) override {
    wired = Clock::now();
    sim_ = ctx.sim;
    tracer_ = ctx.tracer;
    if (!at_.empty()) schedule(0);
  }

  void on_run_end(const refer::harness::RunContext& ctx,
                  const RunMetrics& metrics) override {
    (void)metrics;
    end_s = ctx.sim->now();
  }

  Clock::time_point wired;
  std::vector<Clock::time_point> marks;
  int events = 0;  ///< probe and tap-removal events executed
  double end_s = -1;

 private:
  void schedule(std::size_t i) {
    sim_->schedule_tagged(at_[i], "jobbench.probe", [this, i] {
      marks[i] = Clock::now();
      ++events;
      if (i + 1 == at_.size()) return;
      if (i > 0) {
        schedule(i + 1);
        return;
      }
      tracer_->set_tap([this](const refer::sim::TraceRecord&) {
        if (relayed_ || sim_->now() <= at_[0]) return;
        relayed_ = true;
        schedule(1);
        sim_->schedule_tagged(sim_->now(), "jobbench.probe", [this] {
          tracer_->clear_tap();
          ++events;
        });
      });
    });
  }

  std::vector<double> at_;
  refer::sim::Simulator* sim_ = nullptr;
  refer::sim::Tracer* tracer_ = nullptr;
  bool relayed_ = false;
};

void write_outcome(refer::runner::JsonWriter& w, const RunMetrics& m,
                   double built_at) {
  w.key("outcome");
  w.begin_object();
  w.kv("build_ok", m.build_ok);
  w.kv("built_at_s", built_at);
  w.kv("packets_sent", m.packets_sent);
  w.kv("packets_delivered", m.packets_delivered);
  w.kv("qos_delivered", m.qos_delivered);
  w.kv("delay_p50_ms", m.delay_p50_ms);
  w.kv("delay_p95_ms", m.delay_p95_ms);
  w.kv("delay_p99_ms", m.delay_p99_ms);
  w.kv("comm_energy_j", m.comm_energy_j);
  w.kv("construction_energy_j", m.construction_energy_j);
  w.kv("app_loops_started", m.app_loops_started);
  w.kv("app_loops_within_deadline", m.app_loops_within_deadline);
  w.end_object();
}

/// Work counters: every observability counter plus the sample count of
/// every histogram, except the per-node airtime entries (node ids, not
/// work) and the kernel profiler's wall-time histograms.
void write_counters(refer::runner::JsonWriter& w, const RunMetrics& m) {
  w.key("counters");
  w.begin_object();
  for (const auto& e : m.observability) {
    if (e.name.rfind("node.", 0) == 0 ||
        e.name.rfind("sim.event_us.", 0) == 0) {
      continue;
    }
    w.kv(e.is_histogram ? e.name + ".count" : e.name, e.count);
  }
  w.end_object();
  for (const auto& e : m.observability) {
    if (e.name == "channel.queue_wait_us") w.kv("queue_wait_p95_us", e.p95);
  }
}

/// Measure-window wall time per profiled phase (flight recorder buckets).
void write_phases(refer::runner::JsonWriter& w, const RunMetrics& m) {
  w.key("phase_ms");
  w.begin_object();
  const auto& us = m.timeseries.phase_wall_us;
  for (int p = 0; p < refer::kPhaseCount; ++p) {
    double total = 0;
    for (std::size_t i = static_cast<std::size_t>(p); i < us.size();
         i += refer::kPhaseCount) {
      total += us[i];
    }
    w.kv(refer::to_string(static_cast<refer::Phase>(p)), total / 1000.0);
  }
  w.end_object();
  w.key("event_tag_us");
  w.begin_object();
  for (const auto& e : m.observability) {
    if (e.name.rfind("sim.event_us.", 0) == 0) {
      w.kv(e.name.substr(13), e.sum);
    }
  }
  w.end_object();
}

enum class RunKind { kDiscover, kFull, kTraced };

const char* to_string(RunKind kind) {
  return kind == RunKind::kDiscover ? "discover"
         : kind == RunKind::kFull   ? "full"
                                    : "traced";
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Executes one run in this (child) process and prints its JSON line.
/// `built_at` is the job's simulated build-end time from the reference;
/// when it is unknown (< 0) a full run carries no probe.
void execute(const Job& job, RunKind kind, int round, double built_at,
             Clock::time_point origin) {
  Scenario sc = job.scenario;
  std::vector<double> bounds;
  if (kind == RunKind::kDiscover) sc = setup_scenario(sc);
  if (kind != RunKind::kDiscover && built_at >= 0) bounds.push_back(built_at);
  if (kind == RunKind::kTraced) {
    bounds.push_back(bounds.back() + sc.warmup_s);  // the Driver's arithmetic
    bounds.push_back(bounds.back() + sc.measure_s);
    bounds.push_back(bounds.back() + kDrainS);
    sc.profile = true;
    sc.phase_profile = true;
    if (sc.timeline_bucket_s <= 0) sc.timeline_bucket_s = sc.measure_s;
  }
  StageProbe probe(bounds);
  sc.observer = &probe;

  const Clock::time_point start = Clock::now();
  const RunMetrics m = refer::harness::run_once(job.system, sc);
  const Clock::time_point end = Clock::now();

  refer::runner::JsonWriter w;
  w.begin_object();
  w.kv("round", round);
  w.kv("job", job.name);
  w.kv("kind", to_string(kind));
  w.kv("wall_ms", ms_between(start, end));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  w.kv("maxrss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  // The run ends warmup + measure + drain after its topology was built.
  write_outcome(w, m,
                m.build_ok ? probe.end_s - sc.warmup_s - sc.measure_s - kDrainS
                           : -1);
  write_counters(w, m);
  w.kv("probe_events", probe.events);
  if (kind != RunKind::kDiscover && probe.events > 0) {
    w.kv("setup_ms", ms_between(start, probe.marks[0]));
  }
  if (kind == RunKind::kTraced) {
    // Stage marks: job start, wired, the four probes, job end.  A probe
    // that never fired (failed build) takes the next mark, so the stages
    // still tile the job.
    std::vector<Clock::time_point> marks{start, probe.wired};
    marks.insert(marks.end(), probe.marks.begin(), probe.marks.end());
    marks.push_back(end);
    for (std::size_t i = marks.size() - 1; i-- > 0;) {
      if (marks[i] == Clock::time_point{}) marks[i] = marks[i + 1];
    }
    w.key("marks_ns");
    w.begin_array();
    for (const auto& t : marks) w.value(ns_since(origin, t));
    w.end_array();
    // The flight recorder adds one tick event per bucket plus one.
    const bool added_timeline = job.scenario.timeline_bucket_s <= 0;
    w.kv("timeline_tick_events",
         added_timeline && m.build_ok ? m.timeseries.buckets() + 1 : 0);
    write_phases(w, m);
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

/// Runs `execute` in a forked child.  A child that crashes or throws is
/// reported as a "crashed" record, which run.py counts as a failed run.
/// The child dies with the driver, so a killed driver leaves no job
/// running.
void run_forked(const Job& job, RunKind kind, int round, double built_at,
                Clock::time_point origin) {
  std::fflush(stdout);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("jobbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(4);
    }
    int code = 0;
    try {
      execute(job, kind, round, built_at, origin);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jobbench: %s: %s\n", job.name.c_str(), e.what());
      code = 3;
    }
    std::fflush(stdout);
    _exit(code);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::printf(
        "{\"round\":%d,\"job\":\"%s\",\"kind\":\"%s\",\"crashed\":true}\n",
        round, job.name.c_str(), to_string(kind));
    std::fflush(stdout);
  }
}

/// Parses "name=seconds,name=seconds,..." (the reference build-end times).
bool parse_built_at(const char* text, std::map<std::string, double>& out) {
  std::string rest = text;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string item = rest.substr(0, comma);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    char* end = nullptr;
    const double v = std::strtod(item.c_str() + eq + 1, &end);
    if (*end != '\0' || !(v >= 0)) return false;
    out[item.substr(0, eq)] = v;
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
  }
  return true;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "jobbench: %s\nusage: jobbench --workload "
               "saturation|dense_build|churn --seed N --seconds S "
               "[--trace 0|1] [--built-at job=seconds,...] [--rounds N] "
               "[--whole-pool 0|1] [--held-out 0|1]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool whole_pool = false;
  bool held_out = false;
  int rounds = 0;  // 0 = as many as fit in `seconds` (at least kMinRounds)
  std::map<std::string, double> built_at;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
      continue;
    }
    if (arg == "--built-at") {
      if (!parse_built_at(v, built_at)) usage("bad --built-at list");
      continue;
    }
    char* end = nullptr;
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(x >= 0) || x > 9e15) {
      usage("bad number");
    }
    if (arg == "--seed") seed = static_cast<std::uint64_t>(x);
    else if (arg == "--seconds") seconds = x;
    else if (arg == "--trace") trace = x != 0;
    else if (arg == "--rounds") rounds = static_cast<int>(x);
    else if (arg == "--whole-pool") whole_pool = x != 0;
    else if (arg == "--held-out") held_out = x != 0;
    else usage("unknown flag");
  }
  WorkloadSpec spec;
  if (!workload_spec(workload, spec)) usage("unknown workload");
  const std::vector<Job> jobs = make_jobs(
      spec, scenario_seeds(seed, held_out ? 1 + spec.pool : 1, spec.pool,
                           whole_pool ? spec.pool : spec.seeds_per_run));
  std::vector<double> job_built_at;
  for (const Job& job : jobs) {
    const auto it = built_at.find(job.name);
    job_built_at.push_back(it == built_at.end() ? -1 : it->second);
  }

  const Clock::time_point origin = Clock::now();
  // The traced ledger also needs each job's construction-only work.
  if (trace) {
    for (const Job& job : jobs) {
      run_forked(job, RunKind::kDiscover, -1, -1, origin);
    }
  }
  const Clock::time_point rounds_start = Clock::now();
  double last_round_s = 0;
  for (int r = 0;; ++r) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - rounds_start).count();
    if (rounds > 0 ? r >= rounds
                   : r >= kMinRounds && elapsed + last_round_s > seconds) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    // Rotate the job order so no job always runs first.
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const std::size_t j = (k + static_cast<std::size_t>(seed) +
                             static_cast<std::size_t>(r)) %
                            jobs.size();
      run_forked(jobs[j], RunKind::kFull, r, job_built_at[j], origin);
      // Stage probes need the reference build-end time; without one the
      // full run already fails the reference check.
      if (trace && job_built_at[j] >= 0) {
        run_forked(jobs[j], RunKind::kTraced, r, job_built_at[j], origin);
      }
    }
    last_round_s =
        std::chrono::duration<double>(Clock::now() - round_start).count();
  }
  return 0;
}
