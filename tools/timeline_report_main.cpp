// timeline_report: offline analyzer for referbench results documents.
//
//   timeline_report [--strict] [--dip-frac F] <results.json>...
//
// Reads the flight-recorder timeseries out of each schema v4..v6 results
// JSON (runner/results_writer) and reports, per job: the warmup ramp,
// saturation knees (throughput plateaus while the MAC queue wait keeps
// growing), and recovery dips (throughput or app-loop completion
// falling below a fraction of the steady-state median -- the signature
// of a fault window, e.g. the scripted "0@30+12" actuator break).
//
// Exit status: 0 clean, 1 when --strict and any anomaly was found,
// 2 on usage / unreadable or malformed input.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/timeline_report.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const refer::analysis::ReportCommand cmd =
      refer::analysis::parse_report_command(argc, argv);
  const refer::analysis::ReportOptions& opts = cmd.options;
  const std::vector<std::string>& files = cmd.files;

  int exit_code = 0;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "timeline_report: cannot read %s\n", path.c_str());
      return 2;
    }
    const auto doc = refer::analysis::load_timeline_doc(text);
    if (!doc) {
      std::fprintf(stderr,
                   "timeline_report: %s is not a schema v4..v6 results "
                   "document\n",
                   path.c_str());
      return 2;
    }
    if (files.size() > 1) std::printf("== %s ==\n", path.c_str());
    const refer::analysis::TimelineReport report =
        refer::analysis::analyze_timelines(*doc, opts);
    exit_code = std::max(
        exit_code,
        refer::analysis::print_timeline_report(stdout, *doc, report, opts));
  }
  return exit_code;
}
