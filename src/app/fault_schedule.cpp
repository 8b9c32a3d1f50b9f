#include "app/fault_schedule.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace refer::app {

namespace {

/// The whole of `text` as one decimal number: from_chars takes no hex,
/// no leading '+' and no whitespace, and out of range is an error.
template <typename T>
bool parse_exact(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parses one "idx@start+duration" entry: an actuator index that fits an
/// int, a finite start >= 0 and a finite duration > 0.
bool parse_entry(std::string_view entry, FaultWindow& out) {
  const std::size_t at = entry.find('@');
  const std::size_t plus = entry.find('+', at);  // npos when `at` is
  if (plus == std::string_view::npos) return false;
  int idx = 0;
  double start = 0, dur = 0;
  if (!parse_exact(entry.substr(0, at), idx) || idx < 0 ||
      !parse_exact(entry.substr(at + 1, plus - at - 1), start) ||
      !std::isfinite(start) || start < 0 ||
      !parse_exact(entry.substr(plus + 1), dur) || !std::isfinite(dur) ||
      dur <= 0) {
    return false;
  }
  out.actuator_index = idx;
  out.start_rel_s = start;
  out.duration_s = dur;
  return true;
}

}  // namespace

bool parse_fault_schedule(const std::string& text,
                          std::vector<FaultWindow>& out) {
  std::vector<FaultWindow> parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    const std::string_view entry =
        std::string_view(text).substr(pos, semi - pos);
    // An empty segment ("a;;b") is a malformed schedule, not a no-op --
    // only the empty *string* means "no windows".
    FaultWindow window;
    if (!parse_entry(entry, window)) return false;
    parsed.push_back(window);
    pos = semi + 1;
  }
  out.insert(out.end(), parsed.begin(), parsed.end());
  return true;
}

std::string format_fault_schedule(const std::vector<FaultWindow>& windows) {
  std::string out;
  char buf[96];
  for (const FaultWindow& w : windows) {
    if (!out.empty()) out += ';';
    std::snprintf(buf, sizeof buf, "%d@%g+%g", w.actuator_index,
                  w.start_rel_s, w.duration_s);
    out += buf;
  }
  return out;
}

std::vector<FaultWindow> poisson_fault_windows(int n_actuators,
                                               double break_rate_hz,
                                               double repair_s,
                                               double horizon_rel_s,
                                               Rng& rng) {
  std::vector<FaultWindow> windows;
  if (break_rate_hz <= 0 || repair_s <= 0) return windows;
  const double mean_up_s = 1.0 / break_rate_hz;
  for (int a = 0; a < n_actuators; ++a) {
    double t = rng.exponential(mean_up_s);
    while (t < horizon_rel_s) {
      windows.push_back({a, t, repair_s});
      t += repair_s + rng.exponential(mean_up_s);
    }
  }
  return windows;
}

std::vector<FaultWindow> merge_windows(std::vector<FaultWindow> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              if (a.actuator_index != b.actuator_index) {
                return a.actuator_index < b.actuator_index;
              }
              return a.start_rel_s < b.start_rel_s;
            });
  std::vector<FaultWindow> merged;
  for (const FaultWindow& w : windows) {
    if (!merged.empty() &&
        merged.back().actuator_index == w.actuator_index &&
        w.start_rel_s <= merged.back().end_rel_s()) {
      const double end =
          std::max(merged.back().end_rel_s(), w.end_rel_s());
      merged.back().duration_s = end - merged.back().start_rel_s;
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

double broken_time_in(const std::vector<FaultWindow>& windows,
                      double from_rel_s, double to_rel_s) {
  double total = 0;
  for (const FaultWindow& w : windows) {
    const double lo = std::max(w.start_rel_s, from_rel_s);
    const double hi = std::min(w.end_rel_s(), to_rel_s);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

}  // namespace refer::app
