// Scenario fuzzer: derives a complete randomized-but-bounded Scenario
// from a single 64-bit seed and runs it under the invariant engine.
//
// generate() is a pure function of the seed -- same seed, same Scenario,
// field for field -- so any failing case is reproducible from its seed
// alone, and the shrinker / repro.json replay path (repro.hpp) can
// re-execute it bit-identically.  The ranges are chosen to stay inside
// a couple of simulated minutes per case while still covering world
// size, K(2,3) cell counts, node counts, RWP mobility, traffic mix, and
// fault-injection schedules (node kills via Scenario::faulty_nodes,
// link flaps via Scenario::loss_probability).
//
//   referbench fuzz --seeds 100 --jobs 0
//
// drives run_fuzz(): seeds [base, base+N) execute in waves on a
// runner::ParallelExecutor, each with its own InvariantChecker and
// JSONL trace; clean traces are deleted, failing ones kept for triage.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "verify/invariants.hpp"

namespace refer::verify {

class ScenarioFuzzer {
 public:
  /// The Scenario for one fuzz seed (deterministic; see file comment).
  /// `scenario.seed` is the fuzz seed itself; trace_path / observer are
  /// left unset for the caller.
  [[nodiscard]] static harness::Scenario generate(std::uint64_t seed);
};

/// Runs one scenario under a fresh InvariantChecker and returns every
/// violation.  `trace_path` (may be empty) overrides scenario.trace_path
/// and enables the end-of-run trace audit; the file is left on disk.
[[nodiscard]] std::vector<Violation> run_case(harness::SystemKind kind,
                                              harness::Scenario scenario,
                                              const std::string& trace_path);

/// A bug the engine can plant on purpose (Scenario::planted_bug) to
/// prove that its checks catch a real divergence.  The one list of them:
/// `referbench fuzz --plant`, its --help and run_fuzz all read it.
struct PlantedBug {
  int id;
  const char* site;    ///< the code path the bug corrupts
  const char* effect;  ///< what the invariant checks see
  bool needs_app;      ///< only reachable with the app layer on
};
inline constexpr std::array<PlantedBug, 2> kPlantedBugs = {{
    {1, "refer/routing.cpp",
     "wrong Theorem 3.8 nominal length in fail-over trace records", false},
    {2, "app/control_loop.cpp",
     "spurious actuator-recovery handshake (app_actuator_up without a "
     "down)",
     true},
}};

/// The kPlantedBugs entry with this id, or null.
[[nodiscard]] constexpr const PlantedBug* find_planted_bug(int id) {
  for (const PlantedBug& bug : kPlantedBugs) {
    if (bug.id == id) return &bug;
  }
  return nullptr;
}

struct FuzzOptions {
  int seeds = 25;               ///< number of cases: [base_seed, +seeds)
  std::uint64_t base_seed = 1;  ///< first fuzz seed
  int jobs = 1;                 ///< ParallelExecutor width (<= 0: all cores)
  double budget_s = 0;          ///< stop launching new waves after this (0: off)
  /// 0, or a kPlantedBugs id, forwarded to Scenario::planted_bug.
  int planted_bug = 0;
  /// Force the closed-loop app layer on for every case (and give cases
  /// with no fault source a default Poisson break rate), so a fuzz run
  /// exercises actuator failure / recovery in all cases, not ~half.
  bool force_app = false;
  /// Directory for the per-case JSONL traces (created if missing; empty
  /// uses the system temp directory).  Failing cases leave their trace
  /// behind as fuzz_<seed>.jsonl.
  std::string trace_dir;
};

/// One failing fuzz case.
struct FuzzFailure {
  std::uint64_t seed = 0;
  harness::Scenario scenario;
  std::vector<Violation> violations;
  std::string trace_path;  ///< kept on disk for triage
};

struct FuzzSummary {
  int cases_run = 0;
  int cases_requested = 0;  ///< > cases_run when budget_s cut the run short
  int builds_failed = 0;    ///< cases whose topology construction failed
  std::vector<FuzzFailure> failures;
  [[nodiscard]] bool clean() const noexcept { return failures.empty(); }
};

/// The fuzz driver behind `referbench fuzz`.  Deterministic up to which
/// cases run: the budget may cut waves, but every case that runs is a
/// pure function of its seed.  `progress` (optional) is called after
/// every wave with (cases done, cases requested).  Throws
/// std::invalid_argument when options.planted_bug is neither 0 nor a
/// kPlantedBugs id.
[[nodiscard]] FuzzSummary run_fuzz(
    const FuzzOptions& options,
    const std::function<void(int, int)>& progress = {});

}  // namespace refer::verify
