// Offline trace analyzer: reconstructs per-packet hop chains from JSONL
// traces and audits the routing layer against the Kautz theory.
//
// Four independent audits run over every trace (tools/trace_report):
//   1. Schema: every record carries the keys its event type promises
//      (routing events have a packet id, drops have a reason, ...; a
//      qos_deadline_miss may omit the id -- baseline systems don't
//      track one -- and is then only counted globally).
//   2. Chain continuity: the hop records of a delivered packet form a
//      connected node chain, and every labelled overlay hop is a real
//      Kautz arc (next = shift_append of the current label).
//   3. Theorem 3.8: every fail-over that switched to an alternate
//      successor is re-derived offline via kautz::disjoint_routes --
//      the chosen successor must be one of the d disjoint routes with
//      exactly the nominal length the router recorded, and (greedy runs
//      only) the observed continuation must not exceed that nominal
//      length.
//   4. Regular walks (only when the trace_header says the run used the
//      regular routing policy): every hop not explained by a fail-over
//      must continue the packet's Faber-Streib concatenation walk,
//      re-derived offline via kautz::regular_route with the same reset
//      points the router uses (fail-over detour, target change,
//      exhausted program); a conflict-class fail-over's Proposition 3.7
//      forced second hop is cross-checked too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <istream>
#include <map>
#include <string>
#include <vector>

namespace refer::analysis {

struct TraceReportOptions {
  /// Kautz degree d for the Theorem 3.8 audit; 0 takes the degree from
  /// the trace's header record, falling back (for header-less traces)
  /// to the largest digit seen in any overlay label.
  int degree = 0;
  /// How many per-packet fail-over chains print_report shows.
  std::size_t max_chains = 3;
};

/// One forwarding hop of a packet.
struct HopRecord {
  double t = 0;
  long long from = -1;
  long long to = -1;
  int hop_index = -1;
  std::string at, dst, next;  ///< overlay labels; empty off the overlay
};

/// One alternate-successor switch.
struct FailoverRecord {
  double t = 0;
  long long node = -1;
  int alt_index = -1;
  int nominal_len = -1;       ///< -1: not a Theorem 3.8 switch
  std::string at, dst, next;  ///< labels; empty for CAN-level fail-overs
};

/// Everything the trace recorded about one packet.
struct PacketTrace {
  long long id = -1;
  bool delivered = false;
  bool dropped = false;
  bool qos_miss = false;
  std::string drop_reason;
  double sent_t = 0;
  double end_t = 0;
  std::vector<HopRecord> hops;
  std::vector<FailoverRecord> failovers;
};

struct TraceReport {
  // Ingestion.
  std::uint64_t lines = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t schema_errors = 0;
  std::map<std::string, std::uint64_t> events_by_type;

  // Packet accounting.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t qos_misses = 0;
  std::map<std::string, std::uint64_t> drops_by_reason;

  // Audits.
  std::uint64_t failovers = 0;
  std::uint64_t failovers_checked = 0;    ///< had labels + nominal length
  std::uint64_t failover_mismatches = 0;  ///< successor not a disjoint route
  std::uint64_t path_length_violations = 0;  ///< observed > nominal
  std::uint64_t chain_breaks = 0;            ///< hop chain discontinuity
  std::uint64_t arc_violations = 0;          ///< labelled hop not a Kautz arc
  std::uint64_t regular_checked = 0;     ///< hops audited against the walk
  std::uint64_t regular_mismatches = 0;  ///< hop left the regular program
  int header_degree = 0;  ///< d from a trace_header record (0: absent)
  int degree = 0;  ///< d used for the audit (given, header, or inferred)
  /// Routing policy from the trace_header ("" when absent -- the writer
  /// only emits the key for non-default policies, so "" means greedy).
  std::string header_policy;

  std::map<long long, PacketTrace> packets;

  /// Everything that should fail a strict CI run.
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return parse_errors + schema_errors + failover_mismatches +
           path_length_violations + chain_breaks + arc_violations +
           regular_mismatches;
  }
};

/// Ingests one JSONL trace stream and runs all audits.
[[nodiscard]] TraceReport analyze_trace(std::istream& in,
                                        const TraceReportOptions& opts = {});

/// Convenience: analyze_trace over a file.  Returns a report with
/// parse_errors = 1 and no lines when the file cannot be opened.
[[nodiscard]] TraceReport analyze_trace_file(const std::string& path,
                                             const TraceReportOptions& opts =
                                                 {});

/// Human-readable summary: event counts, drop-reason breakdown, audit
/// results, and up to opts.max_chains per-packet fail-over hop chains.
void print_report(const TraceReport& report, const TraceReportOptions& opts,
                  std::FILE* out);

/// trace_report's command line: `[--degree D] [--chains N] [--strict]
/// <trace.jsonl>...`.
struct TraceCommand {
  TraceReportOptions options;
  bool strict = false;
  std::vector<std::string> files;
};

/// Parses trace_report's arguments (argv[0] is the program).  Prints
/// the usage and exits 0 on --help; exits 2 on an unknown flag, a
/// missing value, no input file, a --degree that is not a whole number
/// >= 2 or a --chains that is not a whole number >= 0.
[[nodiscard]] TraceCommand parse_trace_command(int argc, char** argv);

}  // namespace refer::analysis
