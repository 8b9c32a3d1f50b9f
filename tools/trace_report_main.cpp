// trace_report: offline analyzer for referbench JSONL traces.
//
//   trace_report [--degree D] [--chains N] [--strict] <trace.jsonl>...
//
// Prints, per trace file: event counts, per-packet delivery accounting,
// the drop-reason breakdown, the Theorem 3.8 fail-over audit (every
// alternate-successor switch re-derived via kautz::disjoint_routes) and
// the hop-chain continuity check, plus the first few fail-over chains.
//
// Traces from regular-policy runs (trace_header policy="regular") get a
// fourth audit: every non-fail-over hop replayed against the re-derived
// Faber-Streib concatenation walk (kautz/regular.hpp).
//
// Exit status: 0 clean, 1 when --strict and any audit found a violation
// (parse/schema errors, route mismatches, path-length, chain/arc or
// regular-walk violations), 2 on usage errors.
#include <cstdio>
#include <string>

#include "analysis/trace_report.hpp"

int main(int argc, char** argv) {
  const refer::analysis::TraceCommand cmd =
      refer::analysis::parse_trace_command(argc, argv);
  const refer::analysis::TraceReportOptions& opts = cmd.options;

  std::uint64_t total_violations = 0;
  for (const std::string& file : cmd.files) {
    std::printf("== %s ==\n", file.c_str());
    const refer::analysis::TraceReport report =
        refer::analysis::analyze_trace_file(file, opts);
    if (report.lines == 0 && report.parse_errors > 0) {
      std::fprintf(stderr, "trace_report: cannot read %s\n", file.c_str());
      total_violations += 1;
      continue;
    }
    refer::analysis::print_report(report, opts, stdout);
    total_violations += report.violations();
  }
  if (total_violations > 0) {
    std::fprintf(stderr, "trace_report: %llu total violations\n",
                 static_cast<unsigned long long>(total_violations));
    if (cmd.strict) return 1;
  }
  return 0;
}
