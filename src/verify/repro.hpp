// Minimal-reproducer files (repro.json): a shrunk failing scenario
// serialized flat so `referbench replay repro.json` re-executes it
// bit-identically.
//
// The format is one flat JSON object (analysis::parse_flat_object's
// subset: no nesting) holding the system kind, the violation summary
// that produced it and every harness::for_each_field key.  The 64-bit
// seed is written as a *string* -- JSON numbers are doubles and would
// silently lose seed bits past 2^53.
#pragma once

#include <optional>
#include <string>

#include "harness/experiment.hpp"
#include "verify/invariants.hpp"

namespace refer::verify {

// v4 added routing_policy to v3's app_* knobs.  load_repro reads v4
// only and rejects any other version.  Unknown keys are ignored, so v4
// files that still carry the removed kernel toggles (legacy_event_queue,
// spatial_index, neighbor_cache) load and replay.
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
