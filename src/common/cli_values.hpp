// Strict command-line value parsers shared by the referbench CLI
// (bench/bench_common.hpp, `referbench fuzz`) and the standalone tools
// (timeline_report).  Each returns the value of `raw` or prints
// "<program>: <flag>: ..." with a pointer to `<program> --help` and exits
// 2: a typo must never silently run a different experiment or analysis.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace refer::cli {

[[noreturn]] inline void usage_error(const char* program,
                                     const std::string& message) {
  std::fprintf(stderr, "%s: %s (try '%s --help')\n", program,
               message.c_str(), program);
  std::exit(2);
}

/// A finite real number, the whole of `raw` -- trailing garbage
/// ("0.5x") is an error, and nan / inf / 1e999 would run a meaningless
/// experiment that still exits 0.
inline double numeric_value(const char* program, const std::string& flag,
                            const char* raw) {
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0') {
    usage_error(program, flag + ": not a number: '" + raw + "'");
  }
  if (!std::isfinite(v)) {
    usage_error(program, flag + ": not a finite number: '" + raw + "'");
  }
  return v;
}

/// A finite real number > 0 (durations, rates).
inline double positive_value(const char* program, const std::string& flag,
                             const char* raw) {
  const double v = numeric_value(program, flag, raw);
  if (!(v > 0)) {
    usage_error(program, flag + ": expected a number > 0, got '" + raw + "'");
  }
  return v;
}

/// Integral flags parse exactly (through a double, seeds past 2^53
/// would lose bits) and must be whole numbers >= min that fit the type.
template <typename Int>
Int integer_value(const char* program, const std::string& flag,
                  const char* raw, Int min) {
  (void)numeric_value(program, flag, raw);  // non-numbers keep that error
  Int v{};
  const auto [ptr, ec] = std::from_chars(raw, raw + std::strlen(raw), v);
  if (ec != std::errc() || *ptr != '\0' || v < min) {
    usage_error(program, flag + ": expected a whole number >= " +
                             std::to_string(min) + ", got '" + raw + "'");
  }
  return v;
}

}  // namespace refer::cli
