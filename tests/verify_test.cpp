// The verification engine end to end: fuzz seeds are pure functions of
// their value, clean scenarios raise no invariant violations, a planted
// bug is caught -> shrunk -> replayed from repro.json to the same
// violation, replaying any seed twice is field-for-field identical, and
// every Scenario field-table entry round-trips through repro.json and
// the results document.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/json_doc.hpp"
#include "harness/experiment.hpp"
#include "runner/results_writer.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/repro.hpp"
#include "verify/shrink.hpp"

namespace refer::verify {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ------------------------------------------------------------ generator

TEST(ScenarioFuzzer, GenerateIsAPureFunctionOfTheSeed) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xFFFFFFFFFFFFULL}) {
    const harness::Scenario a = ScenarioFuzzer::generate(seed);
    const harness::Scenario b = ScenarioFuzzer::generate(seed);
    ReproCase ra{harness::SystemKind::kRefer, a, ""};
    ReproCase rb{harness::SystemKind::kRefer, b, ""};
    EXPECT_EQ(to_repro_json(ra), to_repro_json(rb)) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(ScenarioFuzzer, DifferentSeedsGiveDifferentScenarios) {
  const harness::Scenario a = ScenarioFuzzer::generate(1);
  const harness::Scenario b = ScenarioFuzzer::generate(2);
  ReproCase ra{harness::SystemKind::kRefer, a, ""};
  ReproCase rb{harness::SystemKind::kRefer, b, ""};
  EXPECT_NE(to_repro_json(ra), to_repro_json(rb));
}

// ------------------------------------------------------ invariant engine

TEST(InvariantChecker, CleanScenarioRaisesNothingAndSeesTraffic) {
  harness::Scenario sc = ScenarioFuzzer::generate(1);
  sc.trace_path = temp_path("verify_clean.jsonl");
  InvariantChecker checker;
  sc.observer = &checker;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_GT(m.packets_sent, 0u) << "fuzz cases must carry real traffic";
  EXPECT_GT(checker.records_seen(), 100u)
      << "the tap must observe the run at event granularity";
  EXPECT_TRUE(checker.clean()) << "first violation: "
                               << checker.violations().front().check << ": "
                               << checker.violations().front().detail;
  std::remove(sc.trace_path.c_str());
}

TEST(InvariantChecker, WorksWithoutATraceFile) {
  harness::Scenario sc = ScenarioFuzzer::generate(2);
  InvariantChecker checker;
  sc.observer = &checker;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  // The tap still feeds the event-granularity checks; only the offline
  // trace audit is skipped.
  EXPECT_GT(checker.records_seen(), 0u);
  EXPECT_TRUE(checker.clean());
}

TEST(InvariantChecker, ChecksTheBaselinesToo) {
  harness::Scenario sc = ScenarioFuzzer::generate(3);
  InvariantChecker checker;
  sc.observer = &checker;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kDaTree, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_TRUE(checker.clean());
}

// ------------------------------------------------------------ determinism

void expect_identical(const harness::RunMetrics& a,
                      const harness::RunMetrics& b) {
  EXPECT_EQ(a.build_ok, b.build_ok);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.qos_delivered, b.qos_delivered);
  EXPECT_EQ(a.qos_throughput_kbps, b.qos_throughput_kbps);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.delay_p50_ms, b.delay_p50_ms);
  EXPECT_EQ(a.delay_p95_ms, b.delay_p95_ms);
  EXPECT_EQ(a.delay_p99_ms, b.delay_p99_ms);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.comm_energy_j, b.comm_energy_j);
  EXPECT_EQ(a.construction_energy_j, b.construction_energy_j);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.qos_timeline_kbps, b.qos_timeline_kbps);
  EXPECT_EQ(a.app_loops_started, b.app_loops_started);
  EXPECT_EQ(a.app_loops_completed, b.app_loops_completed);
  EXPECT_EQ(a.app_loops_within_deadline, b.app_loops_within_deadline);
  EXPECT_EQ(a.app_loop_p50_ms, b.app_loop_p50_ms);
  EXPECT_EQ(a.app_loop_p95_ms, b.app_loop_p95_ms);
  EXPECT_EQ(a.app_loop_p99_ms, b.app_loop_p99_ms);
  EXPECT_EQ(a.app_loop_completion_ratio, b.app_loop_completion_ratio);
  EXPECT_EQ(a.app_actuator_availability, b.app_actuator_availability);
  EXPECT_EQ(a.app_recoveries, b.app_recoveries);
  EXPECT_EQ(a.app_mean_recovery_s, b.app_mean_recovery_s);
  ASSERT_EQ(a.observability.size(), b.observability.size());
  for (std::size_t i = 0; i < a.observability.size(); ++i) {
    const auto& ea = a.observability[i];
    const auto& eb = b.observability[i];
    EXPECT_EQ(ea.name, eb.name);
    EXPECT_EQ(ea.is_histogram, eb.is_histogram);
    EXPECT_EQ(ea.count, eb.count) << ea.name;
    EXPECT_EQ(ea.sum, eb.sum) << ea.name;
    EXPECT_EQ(ea.min, eb.min) << ea.name;
    EXPECT_EQ(ea.max, eb.max) << ea.name;
    EXPECT_EQ(ea.p50, eb.p50) << ea.name;
    EXPECT_EQ(ea.p95, eb.p95) << ea.name;
    EXPECT_EQ(ea.p99, eb.p99) << ea.name;
  }
}

TEST(FuzzDeterminism, ReplayingASeedIsFieldForFieldIdentical) {
  for (const std::uint64_t seed : {5ULL, 11ULL}) {
    harness::Scenario sc = ScenarioFuzzer::generate(seed);
    // The kernel profiler histograms are wall-time (the one intentional
    // nondeterminism in the observability snapshot); everything else
    // must match exactly.
    sc.profile = false;
    const harness::RunMetrics a =
        harness::run_once(harness::SystemKind::kRefer, sc);
    const harness::RunMetrics b =
        harness::run_once(harness::SystemKind::kRefer, sc);
    expect_identical(a, b);
  }
}

// -------------------------------------------------------------- repro.json

TEST(Repro, RoundTripsEveryScenarioField) {
  ReproCase repro;
  repro.kind = harness::SystemKind::kDDear;
  repro.violation = "energy.conservation: off by 0.25 J";
  harness::Scenario& sc = repro.scenario;
  sc = ScenarioFuzzer::generate(99);
  sc.seed = (1ULL << 63) + 12345;  // needs string serialization: > 2^53
  sc.loss_probability = 0.07421875;
  sc.planted_bug = 1;
  sc.packet_bytes = 3999;

  const std::string path = temp_path("verify_roundtrip.json");
  ASSERT_TRUE(write_repro(path, repro));
  const auto loaded = load_repro(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->kind, repro.kind);
  EXPECT_EQ(loaded->violation, repro.violation);
  EXPECT_EQ(loaded->scenario.seed, sc.seed);
  // One string comparison covers every serialized field exactly.
  EXPECT_EQ(to_repro_json(*loaded), to_repro_json(repro));
  std::remove(path.c_str());
}

TEST(Repro, RejectsPreV4FilesAndIgnoresRemovedKernelKeys) {
  ReproCase repro;
  repro.kind = harness::SystemKind::kRefer;
  repro.scenario = ScenarioFuzzer::generate(7);
  std::string doc;
  const auto replace = [&doc](const std::string& from,
                              const std::string& to) {
    const std::size_t at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
  };
  const auto write_doc = [&doc](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(doc.c_str(), f);
    std::fclose(f);
  };

  // A v2 or v3 stamp is rejected with the version message, even on an
  // otherwise complete document.
  const std::string old_path = temp_path("verify_old_version.json");
  for (const int version : {2, 3}) {
    doc = to_repro_json(repro);
    replace("\"repro_version\":4",
            "\"repro_version\":" + std::to_string(version));
    write_doc(old_path);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(load_repro(old_path).has_value()) << doc;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "has version " + std::to_string(version) + ", expected 4"),
              std::string::npos)
        << version;
  }
  std::remove(old_path.c_str());

  // A v4 file from before the kernel toggles were removed still carries
  // the event-queue, spatial-index and neighbor-cache keys.  It must
  // load -- the keys are ignored, every other field survives -- and
  // replay.
  doc = to_repro_json(repro);
  replace("\"routing_policy\"",
          "\"spatial_index\":false,\"neighbor_cache\":false,"
          "\"routing_policy\"");
  replace("\"timeline_bucket_s\"",
          "\"legacy_event_queue\":true,\"timeline_bucket_s\"");
  const std::string v4_path = temp_path("verify_v4_queue_toggle.json");
  write_doc(v4_path);
  const auto replayable = load_repro(v4_path);
  ASSERT_TRUE(replayable.has_value()) << doc;
  EXPECT_EQ(to_repro_json(*replayable), to_repro_json(repro));
  const std::string trace = temp_path("verify_v4_queue_toggle.jsonl");
  const std::vector<Violation> replayed =
      run_case(replayable->kind, replayable->scenario, trace);
  EXPECT_TRUE(replayed.empty()) << summarize(replayed);
  std::remove(v4_path.c_str());
  std::remove(trace.c_str());
}

TEST(Repro, RejectsMissingAndMalformedFiles) {
  EXPECT_FALSE(load_repro(temp_path("verify_nonexistent.json")).has_value());
  const std::string path = temp_path("verify_bad.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"repro_version\": 1}\n", f);  // missing everything else
  std::fclose(f);
  EXPECT_FALSE(load_repro(path).has_value());
  std::remove(path.c_str());
}

TEST(Repro, RejectsNumbersThatAreNotIntegersOfTheFieldsType) {
  // A repro file is outside input: an integral field must hold a whole
  // number its type can represent, never be cast from whatever double
  // the file spells.
  ReproCase repro;
  repro.scenario = ScenarioFuzzer::generate(7);
  const std::string good = to_repro_json(repro);
  const std::string path = temp_path("verify_bad_integer.json");
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"n_sensors", "1e300"},
        {"packet_bytes", "-1"},
        {"faulty_nodes", "2.5"}}) {
    std::string doc = good;
    const std::size_t at = doc.find("\"" + key + "\":");
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t from = at + key.size() + 3;
    doc.replace(from, doc.find(',', from) - from, value);
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(load_repro(path).has_value()) << doc;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  key + ": expected an integer"),
              std::string::npos)
        << key;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- Scenario field table

/// One field as exact text: doubles in hex, so "equal" means bit-equal.
template <typename T>
std::string field_text(const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "\"" + v + "\"";
  } else if constexpr (std::is_same_v<T, harness::RoutingPolicy>) {
    return harness::to_string(v);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {  // harness::SeedField
    return std::to_string(v.value);
  }
}

/// Every for_each_field entry as "key=text", so two scenarios compare on
/// the whole table without a hand-kept field list.
std::vector<std::string> field_texts(const harness::Scenario& sc) {
  std::vector<std::string> out;
  harness::for_each_field(sc, [&out](const char* key, const auto& field) {
    out.push_back(std::string(key) + "=" + field_text(field));
  });
  return out;
}

/// A results-document node read back as the field's C++ type, then as
/// field_text; a node of the wrong JSON kind reads as a marker.
template <typename T>
std::string node_text(const analysis::JsonNode& node, const T&) {
  using Kind = analysis::JsonNode::Kind;
  if constexpr (std::is_same_v<T, std::string>) {
    return node.kind == Kind::kString ? field_text(node.str) : "<kind>";
  } else if constexpr (std::is_same_v<T, harness::RoutingPolicy>) {
    return node.kind == Kind::kString ? node.str : "<kind>";
  } else if constexpr (std::is_same_v<T, bool>) {
    return node.kind == Kind::kBool ? field_text(node.boolean) : "<kind>";
  } else if constexpr (std::is_same_v<T, double>) {
    return node.kind == Kind::kNumber ? field_text(node.number) : "<kind>";
  } else {
    static_assert(std::is_integral_v<T>);
    return node.kind == Kind::kNumber
               ? field_text(static_cast<T>(node.number))
               : "<kind>";
  }
}

/// The seed's digits exactly as the results document spells them: a
/// double (what parse_json_doc keeps) cannot hold seeds past 2^53.
std::string scenario_seed_text(const std::string& doc) {
  const std::string key = "\"seed\":";
  const std::size_t at = doc.find(key, doc.find("\"scenario\":{"));
  if (at == std::string::npos) return "<missing>";
  const std::size_t from = at + key.size();
  return doc.substr(from, doc.find_first_of(",}", from) - from);
}

TEST(ScenarioFieldTable, ReproAndResultsRoundTripFuzzedScenarios) {
  const std::string path = temp_path("verify_field_table.json");
  for (std::uint64_t i = 1; i <= 100; ++i) {
    harness::Scenario sc = ScenarioFuzzer::generate(i);
    if (i % 20 == 0) sc.seed = (1ULL << 53) + 2 * i + 1;  // needs exact text

    ReproCase repro{harness::SystemKind::kKautzOverlay, sc,
                    "case " + std::to_string(i)};
    ASSERT_TRUE(write_repro(path, repro));
    const auto loaded = load_repro(path);
    ASSERT_TRUE(loaded.has_value()) << i;
    EXPECT_EQ(field_texts(loaded->scenario), field_texts(sc)) << i;

    runner::ResultsWriter writer;
    writer.set_scenario(sc);
    const std::string text = writer.to_json();
    const auto doc = analysis::parse_json_doc(text);
    ASSERT_TRUE(doc.has_value()) << i;
    const analysis::JsonNode* block = doc->find("scenario");
    ASSERT_NE(block, nullptr);
    const harness::Scenario& written = sc;
    harness::for_each_field(written, [&](const char* key, const auto& field) {
      const analysis::JsonNode* node = block->find(key);
      ASSERT_NE(node, nullptr) << key;
      using Seed = harness::SeedField<const std::uint64_t>;
      if constexpr (std::is_same_v<std::decay_t<decltype(field)>, Seed>) {
        EXPECT_EQ(node->kind, analysis::JsonNode::Kind::kNumber);
        EXPECT_EQ(scenario_seed_text(text), field_text(field)) << i;
      } else {
        EXPECT_EQ(node_text(*node, field), field_text(field))
            << i << " " << key;
      }
    });
  }
  std::remove(path.c_str());
}

// ----------------------------------------- planted bug -> shrink -> replay

TEST(PlantedBug, OnlyListedIdsCanBePlanted) {
  for (const PlantedBug& bug : kPlantedBugs) {
    EXPECT_EQ(find_planted_bug(bug.id), &bug);
  }
  EXPECT_EQ(find_planted_bug(0), nullptr);
  FuzzOptions options;
  options.seeds = 1;
  options.planted_bug = 7;
  EXPECT_THROW((void)run_fuzz(options), std::invalid_argument);
}

TEST(PlantedBug, IsCaughtShrunkAndReplayedFromRepro) {
  // 1. Fuzz with the planted off-by-one in the Theorem 3.8 fail-over
  // nominal length; the trace audit must flag it on some seed.
  FuzzOptions options;
  options.seeds = 12;
  options.base_seed = 1;
  options.jobs = 2;
  options.planted_bug = 1;
  options.trace_dir = temp_path("verify_plant");
  const FuzzSummary summary = run_fuzz(options);
  EXPECT_EQ(summary.cases_run, 12);
  ASSERT_FALSE(summary.failures.empty())
      << "the planted bug escaped " << summary.cases_run << " fuzz cases";
  const FuzzFailure& first = summary.failures.front();
  bool flagged = false;
  for (const Violation& v : first.violations) {
    flagged |= v.check == "trace.failover_mismatches";
  }
  EXPECT_TRUE(flagged) << "expected the fail-over audit to flag the plant";

  // 2. Shrink to a minimal reproducer; it must still raise the same
  // check, with fewer nodes / a shorter horizon than where it started.
  ScenarioShrinker::Options shrink_options;
  shrink_options.max_runs = 32;
  shrink_options.trace_path = temp_path("verify_plant_shrink.jsonl");
  const ScenarioShrinker::Result shrunk =
      ScenarioShrinker::shrink(first.scenario, first.violations,
                               shrink_options);
  EXPECT_GT(shrunk.accepted, 0) << "nothing could be reduced";
  EXPECT_LE(shrunk.scenario.n_sensors, first.scenario.n_sensors);
  EXPECT_LE(shrunk.scenario.measure_s, first.scenario.measure_s);
  ASSERT_FALSE(shrunk.violations.empty());

  // 3. Write repro.json, load it back, and replay: bit-identical runs
  // mean the identical violation set, field for field.
  ReproCase repro;
  repro.kind = harness::SystemKind::kRefer;
  repro.scenario = shrunk.scenario;
  repro.scenario.trace_path.clear();
  repro.violation = summarize(shrunk.violations);
  const std::string repro_path = temp_path("verify_plant_repro.json");
  ASSERT_TRUE(write_repro(repro_path, repro));
  const auto loaded = load_repro(repro_path);
  ASSERT_TRUE(loaded.has_value());

  const std::vector<Violation> replayed = run_case(
      loaded->kind, loaded->scenario, shrink_options.trace_path);
  ASSERT_EQ(replayed.size(), shrunk.violations.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].check, shrunk.violations[i].check);
    EXPECT_EQ(replayed[i].detail, shrunk.violations[i].detail);
  }

  std::remove(repro_path.c_str());
  std::remove(shrink_options.trace_path.c_str());
  for (const FuzzFailure& f : summary.failures) {
    std::remove(f.trace_path.c_str());
  }
}

// ------------------------------------------------------------ fuzz driver

TEST(FuzzDriver, CleanSeedsProduceNoViolationsAndNoLeftoverTraces) {
  FuzzOptions options;
  options.seeds = 6;
  options.base_seed = 21;
  options.jobs = 2;
  options.trace_dir = temp_path("verify_fuzz_clean");
  const FuzzSummary summary = run_fuzz(options);
  EXPECT_EQ(summary.cases_run, 6);
  EXPECT_TRUE(summary.clean())
      << summary.failures.size() << " failing case(s); first seed "
      << summary.failures.front().seed << ": "
      << summarize(summary.failures.front().violations);
  // Clean cases delete their traces.
  for (int i = 0; i < 6; ++i) {
    const std::string trace =
        options.trace_dir + "/fuzz_" + std::to_string(21 + i) + ".jsonl";
    std::FILE* f = std::fopen(trace.c_str(), "r");
    EXPECT_EQ(f, nullptr) << trace << " should have been deleted";
    if (f) std::fclose(f);
  }
}

}  // namespace
}  // namespace refer::verify
