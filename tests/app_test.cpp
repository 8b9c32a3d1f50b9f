// The closed-loop application layer (src/app): fault-schedule algebra,
// the keepalive state machine, and -- end to end through the harness --
// a scripted break/repair whose recovery time and availability are
// pinned to exact values, bit-identical serial/parallel aggregation,
// byte-identical traces, the planted spurious-handshake bug being
// caught, and trace_report understanding the app_* event taxonomy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/trace_report.hpp"
#include "app/actuator_supervisor.hpp"
#include "app/control_loop.hpp"
#include "app/fault_schedule.hpp"
#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"

namespace refer::app {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --------------------------------------------------------- fault schedule

TEST(FaultSchedule, ParsesAndFormatsRoundTrip) {
  std::vector<FaultWindow> windows;
  ASSERT_TRUE(parse_fault_schedule("0@30+12;2@5.5+0.25", windows));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].actuator_index, 0);
  EXPECT_EQ(windows[0].start_rel_s, 30.0);
  EXPECT_EQ(windows[0].duration_s, 12.0);
  EXPECT_EQ(windows[0].end_rel_s(), 42.0);
  EXPECT_EQ(windows[1].actuator_index, 2);
  EXPECT_EQ(windows[1].start_rel_s, 5.5);
  EXPECT_EQ(windows[1].duration_s, 0.25);

  const std::string text = format_fault_schedule(windows);
  std::vector<FaultWindow> again;
  ASSERT_TRUE(parse_fault_schedule(text, again));
  EXPECT_EQ(format_fault_schedule(again), text);
}

TEST(FaultSchedule, EmptyStringMeansNoWindows) {
  std::vector<FaultWindow> windows;
  EXPECT_TRUE(parse_fault_schedule("", windows));
  EXPECT_TRUE(windows.empty());
  EXPECT_EQ(format_fault_schedule({}), "");
}

TEST(FaultSchedule, RejectsMalformedEntries) {
  for (const char* bad : {"0@30", "0+12", "@30+12", "0@30+12;;", "x@1+1",
                          "0@-1+5", "-1@3+5", "0@3+0", "0@3+-2", "0@3+5junk",
                          // Not finite, not decimal, or past INT_MAX
                          // (4294967296 used to wrap to actuator 0).
                          "0@nan+1", "0@1+nan", "0@1+inf", "0@inf+1",
                          "0@0x10+1", "0x1@1+1", "4294967296@1+2",
                          "2147483648@1+2", "+1@1+1", "0@+1+1", " 0@1+1",
                          "0@1e999+1"}) {
    std::vector<FaultWindow> windows{{7, 7, 7}};
    EXPECT_FALSE(parse_fault_schedule(bad, windows)) << bad;
    // Failure leaves the output untouched.
    ASSERT_EQ(windows.size(), 1u) << bad;
    EXPECT_EQ(windows[0].actuator_index, 7) << bad;
  }
}

TEST(FaultSchedule, AcceptsDecimalFormsAtTheLimits) {
  std::vector<FaultWindow> windows;
  ASSERT_TRUE(parse_fault_schedule("2147483647@0+1e-05;0@1.5e2+0.5", windows));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].actuator_index, 2147483647);
  EXPECT_EQ(windows[0].start_rel_s, 0.0);
  EXPECT_EQ(windows[0].duration_s, 1e-05);
  EXPECT_EQ(windows[1].start_rel_s, 150.0);
}

TEST(FaultSchedule, MergeCoalescesOverlapsPerActuator) {
  std::vector<FaultWindow> merged = merge_windows({
      {1, 10, 5},   // [10, 15) on actuator 1
      {0, 12, 4},   // [12, 16) on actuator 0 -- different actuator
      {1, 14, 6},   // overlaps the first -> [10, 20)
      {1, 20, 2},   // touches -> [10, 22)
      {1, 30, 1},   // disjoint
  });
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].actuator_index, 0);
  EXPECT_EQ(merged[1].actuator_index, 1);
  EXPECT_EQ(merged[1].start_rel_s, 10.0);
  EXPECT_EQ(merged[1].end_rel_s(), 22.0);
  EXPECT_EQ(merged[2].start_rel_s, 30.0);
}

TEST(FaultSchedule, BrokenTimeIntegratesExactly) {
  const std::vector<FaultWindow> windows =
      merge_windows({{0, 30, 12}, {1, 115, 20}});
  // Window [30, 42) sits fully inside [20, 120); [115, 135) is clipped.
  EXPECT_EQ(broken_time_in(windows, 20, 120), 12.0 + 5.0);
  EXPECT_EQ(broken_time_in(windows, 0, 20), 0.0);
  EXPECT_EQ(broken_time_in(windows, 35, 40), 5.0);
}

TEST(FaultSchedule, PoissonWindowsAreDeterministicAndWellFormed) {
  Rng a(42), b(42);
  const auto wa = poisson_fault_windows(5, 0.05, 10, 200, a);
  const auto wb = poisson_fault_windows(5, 0.05, 10, 200, b);
  EXPECT_EQ(format_fault_schedule(wa), format_fault_schedule(wb));
  EXPECT_FALSE(wa.empty()) << "0.05 Hz over 5x200 s should break something";
  int prev_actuator = 0;
  for (const FaultWindow& w : wa) {
    EXPECT_GE(w.actuator_index, prev_actuator) << "index order";
    prev_actuator = w.actuator_index;
    EXPECT_GE(w.start_rel_s, 0.0);
    EXPECT_LT(w.start_rel_s, 200.0);
    EXPECT_EQ(w.duration_s, 10.0);
  }
  Rng c(43);
  const auto wc = poisson_fault_windows(5, 0.05, 10, 200, c);
  EXPECT_NE(format_fault_schedule(wa), format_fault_schedule(wc));
}

// ----------------------------------------------------- supervisor machine

TEST(ActuatorSupervisor, WalksBreakAndRepairExactly) {
  // Fault [30, 42), keepalive every 5 s, miss limit 2: ticks 6/7/8 lapse,
  // down crossing at tick 7, clean tick 9 recovers -> 2 ticks = 10 s.
  ActuatorSupervisor sup(0, sim::NodeId{3}, {{0, 30, 12}});
  using Tick = ActuatorSupervisor::Tick;
  EXPECT_FALSE(sup.broken_at(29.999));
  EXPECT_TRUE(sup.broken_at(30.0));
  EXPECT_TRUE(sup.broken_at(41.999));
  EXPECT_FALSE(sup.broken_at(42.0));

  for (int tick = 0; tick <= 5; ++tick) {
    EXPECT_EQ(sup.on_keepalive(tick, tick * 5.0, 2), Tick::kAlive);
  }
  EXPECT_EQ(sup.on_keepalive(6, 30.0, 2), Tick::kMiss);
  EXPECT_EQ(sup.misses(), 1);
  EXPECT_FALSE(sup.believed_down());
  EXPECT_EQ(sup.on_keepalive(7, 35.0, 2), Tick::kWentDown);
  EXPECT_TRUE(sup.believed_down());
  EXPECT_EQ(sup.on_keepalive(8, 40.0, 2), Tick::kStillDown);
  EXPECT_EQ(sup.on_keepalive(9, 45.0, 2), Tick::kRecovered);
  EXPECT_FALSE(sup.believed_down());
  EXPECT_EQ(sup.last_recovery_ticks(), 2);
  EXPECT_EQ(sup.on_keepalive(10, 50.0, 2), Tick::kAlive);
}

// ------------------------------------------------- end-to-end pinned run

harness::Scenario scripted_break_scenario() {
  harness::Scenario sc;  // defaults: 5 actuators, warmup 20, measure 100
  sc.seed = 7;
  sc.app_enabled = true;
  sc.app_fault_schedule = "0@30+12";
  sc.app_keepalive_period_s = 5;
  sc.app_keepalive_miss_limit = 2;
  sc.app_break_rate_hz = 0;  // the scripted window is the only fault
  return sc;
}

TEST(ControlLoopEndToEnd, ScriptedBreakPinsRecoveryAndAvailability) {
  const harness::Scenario sc = scripted_break_scenario();
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);

  // The believed-down span is tick arithmetic (down at tick 7, clean at
  // tick 9, 5 s period), so the recovery time is EXACTLY 10 s; the
  // availability is the exact schedule integral 1 - 12/(5 * 100).
  EXPECT_EQ(m.app_recoveries, 1u);
  EXPECT_EQ(m.app_mean_recovery_s, 10.0);
  EXPECT_EQ(m.app_actuator_availability, 1.0 - 12.0 / 500.0);

  // The loop pipeline actually ran and its counters nest correctly.
  EXPECT_GT(m.app_loops_started, 0u);
  EXPECT_GE(m.app_loops_started, m.app_loops_completed);
  EXPECT_GE(m.app_loops_completed, m.app_loops_within_deadline);
  EXPECT_GT(m.app_loops_within_deadline, 0u);
  EXPECT_GE(m.app_loop_completion_ratio, 0.0);
  EXPECT_LE(m.app_loop_completion_ratio, 1.0);
  EXPECT_GT(m.app_loop_p95_ms, 0.0);
  EXPECT_GE(m.app_loop_p99_ms, m.app_loop_p95_ms);
  EXPECT_GE(m.app_loop_p95_ms, m.app_loop_p50_ms);
}

TEST(ControlLoopEndToEnd, AllFourSystemsCarryTheLoopTraffic) {
  for (const harness::SystemKind kind : harness::kAllSystems) {
    harness::Scenario sc = scripted_break_scenario();
    sc.measure_s = 60;
    const harness::RunMetrics m = harness::run_once(kind, sc);
    ASSERT_TRUE(m.build_ok) << harness::to_string(kind);
    EXPECT_GT(m.app_loops_started, 0u) << harness::to_string(kind);
    // The fault schedule is app-tier state, identical for every stack.
    EXPECT_EQ(m.app_actuator_availability, 1.0 - 12.0 / 300.0)
        << harness::to_string(kind);
    EXPECT_EQ(m.app_recoveries, 1u) << harness::to_string(kind);
  }
}

TEST(ControlLoopEndToEnd, DisabledAppLayerLeavesMetricsZero) {
  harness::Scenario sc = scripted_break_scenario();
  sc.app_enabled = false;
  sc.measure_s = 40;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_EQ(m.app_loops_started, 0u);
  EXPECT_EQ(m.app_recoveries, 0u);
  EXPECT_EQ(m.app_actuator_availability, 0.0);
}

// ------------------------------------------------------------ determinism

void expect_summary_identical(const Summary& a, const Summary& b,
                              const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;  // exact: identical fold order
  EXPECT_EQ(a.ci95_half_width(), b.ci95_half_width()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

TEST(ControlLoopDeterminism, SerialAndParallelAggregatesAreBitIdentical) {
  harness::Scenario sc = scripted_break_scenario();
  sc.measure_s = 40;
  sc.app_break_rate_hz = 0.01;  // Poisson breaks on top of the script
  const harness::AggregateMetrics serial =
      harness::run_repeated(harness::SystemKind::kRefer, sc, 4, 1);
  const harness::AggregateMetrics parallel =
      harness::run_repeated(harness::SystemKind::kRefer, sc, 4, 4);
  EXPECT_EQ(serial.app_loop_completion_ratio.count(), 4u);
  expect_summary_identical(serial.app_loop_completion_ratio,
                           parallel.app_loop_completion_ratio,
                           "app_loop_completion_ratio");
  expect_summary_identical(serial.app_loop_p95_ms, parallel.app_loop_p95_ms,
                           "app_loop_p95_ms");
  expect_summary_identical(serial.app_actuator_availability,
                           parallel.app_actuator_availability,
                           "app_actuator_availability");
  expect_summary_identical(serial.app_mean_recovery_s,
                           parallel.app_mean_recovery_s,
                           "app_mean_recovery_s");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ControlLoopDeterminism, TracesAreByteIdenticalAcrossRuns) {
  harness::Scenario sc = scripted_break_scenario();
  sc.measure_s = 40;
  sc.trace_path = temp_path("app_trace_a.jsonl");
  (void)harness::run_once(harness::SystemKind::kRefer, sc);
  const std::string a = slurp(sc.trace_path);
  std::remove(sc.trace_path.c_str());
  sc.trace_path = temp_path("app_trace_b.jsonl");
  (void)harness::run_once(harness::SystemKind::kRefer, sc);
  const std::string b = slurp(sc.trace_path);
  std::remove(sc.trace_path.c_str());
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "app-layer runs must replay bit-identically";
  EXPECT_NE(a.find("app_register"), std::string::npos);
  EXPECT_NE(a.find("app_actuator_down"), std::string::npos);
  EXPECT_NE(a.find("app_actuator_up"), std::string::npos);
}

// ------------------------------------------------ checker + trace_report

TEST(AppInvariants, CleanScriptedRunRaisesNothing) {
  const std::vector<verify::Violation> violations = verify::run_case(
      harness::SystemKind::kRefer, scripted_break_scenario(),
      temp_path("app_clean.jsonl"));
  EXPECT_TRUE(violations.empty())
      << violations.front().check << ": " << violations.front().detail;
  std::remove(temp_path("app_clean.jsonl").c_str());
}

TEST(AppInvariants, PlantedSpuriousHandshakeIsCaught) {
  harness::Scenario sc = scripted_break_scenario();
  sc.planted_bug = 2;  // spurious app_actuator_up without a down
  const std::vector<verify::Violation> violations = verify::run_case(
      harness::SystemKind::kRefer, sc, temp_path("app_plant.jsonl"));
  bool up_without_down = false;
  for (const verify::Violation& v : violations) {
    up_without_down |= v.check == "app.up_without_down";
  }
  EXPECT_TRUE(up_without_down)
      << "the spurious handshake escaped the checker ("
      << violations.size() << " violation(s) raised)";
  std::remove(temp_path("app_plant.jsonl").c_str());
}

TEST(AppTraceReport, KnowsTheAppEventTaxonomy) {
  harness::Scenario sc = scripted_break_scenario();
  sc.measure_s = 60;
  sc.trace_path = temp_path("app_report.jsonl");
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  const analysis::TraceReport report =
      analysis::analyze_trace_file(sc.trace_path, {});
  std::remove(sc.trace_path.c_str());
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_EQ(report.schema_errors, 0u)
      << "app_* records must satisfy the trace schema";
  EXPECT_GT(report.events_by_type.count("app_register"), 0u);
  EXPECT_GT(report.events_by_type.at("app_register"), 0u);
  EXPECT_GT(report.events_by_type.count("app_actuate"), 0u);
  // Loop misses surface in the drop breakdown without being mistaken
  // for routing drops.
  const auto miss = report.events_by_type.find("app_loop_miss");
  if (miss != report.events_by_type.end()) {
    EXPECT_EQ(report.drops_by_reason.at("app_loop_miss"), miss->second);
  }
}

}  // namespace
}  // namespace refer::app
