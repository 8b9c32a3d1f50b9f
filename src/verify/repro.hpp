// Minimal-reproducer files (repro.json): a shrunk failing scenario
// serialized flat so `referbench replay repro.json` re-executes it
// bit-identically.
//
// The format is one flat JSON object (analysis::parse_flat_object's
// subset: no nesting) holding every Scenario field plus the system kind
// and the violation summary that produced it.  The 64-bit seed is
// written as a *string* -- JSON numbers are doubles and would silently
// lose seed bits past 2^53.
#pragma once

#include <optional>
#include <string>

#include "harness/experiment.hpp"
#include "verify/invariants.hpp"

namespace refer::verify {

// v2: adds a kernel event-queue toggle, since removed; load_repro
//     ignores the key, so files that carry it still load.
// v3: adds the closed-loop app layer's eight app_* scenario knobs
//     (src/app).  load_repro still reads v2 files -- the app fields
//     then keep their defaults (app_enabled = false).
// v4: adds the routing_policy toggle ("greedy" / "regular",
//     Scenario::routing_policy).  v2 / v3 files stay loadable -- the
//     policy then keeps its default (greedy), which is what every
//     pre-v4 run used.
// Files up to v4 may also carry the spatial_index / neighbor_cache
// kernel toggles, since removed (results never depended on them);
// load_repro ignores those keys too.
inline constexpr int kReproVersion = 4;

struct ReproCase {
  harness::SystemKind kind = harness::SystemKind::kRefer;
  harness::Scenario scenario;
  /// "check: detail; ..." summary of the violations being reproduced.
  std::string violation;
};

/// Renders the case as a flat JSON object (one line, trailing newline).
[[nodiscard]] std::string to_repro_json(const ReproCase& repro);

/// Writes to_repro_json(repro) to `path`; false when the file cannot be
/// opened.
bool write_repro(const std::string& path, const ReproCase& repro);

/// Parses a repro.json back into a runnable case.  Returns nullopt (and
/// prints the reason to stderr) on unreadable files, version mismatch,
/// or missing / ill-typed fields.
[[nodiscard]] std::optional<ReproCase> load_repro(const std::string& path);

/// Summarizes violations for ReproCase::violation.
[[nodiscard]] std::string summarize(const std::vector<Violation>& violations);

}  // namespace refer::verify
