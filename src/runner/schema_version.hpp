// The results document's schema version (see results_writer.hpp for the
// layout).  Std-only, so readers such as analysis/timeline_report can
// check it without linking the harness.
#pragma once

namespace refer::runner {

inline constexpr int kResultsSchemaVersion = 6;

}  // namespace refer::runner
