#include "verify/repro.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "analysis/json_doc.hpp"
#include "app/fault_schedule.hpp"
#include "runner/json.hpp"

namespace refer::verify {

std::string summarize(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += "; ";
    out += v.check + ": " + v.detail;
  }
  return out;
}

namespace {

/// Repro encoding of one Scenario field: JSON's own scalar for each
/// type, the routing policy by name, and the seed as a decimal string --
/// the JSON reader keeps numbers as doubles, which would drop seed bits
/// past 2^53.
template <typename T>
void write_field(runner::JsonWriter& w, const T& v) {
  w.value(v);
}
void write_field(runner::JsonWriter& w, harness::RoutingPolicy policy) {
  w.value(harness::to_string(policy));
}
template <typename U>
void write_field(runner::JsonWriter& w, harness::SeedField<U> seed) {
  w.value(std::to_string(seed.value));
}

}  // namespace

std::string to_repro_json(const ReproCase& repro) {
  runner::JsonWriter w;
  w.begin_object();
  w.kv("repro_version", kReproVersion);
  w.kv("system", harness::to_string(repro.kind));
  w.kv("violation", repro.violation);
  harness::for_each_field(repro.scenario,
                          [&w](const char* key, const auto& field) {
                            w.key(key);
                            write_field(w, field);
                          });
  w.end_object();
  return w.str() + "\n";
}

bool write_repro(const std::string& path, const ReproCase& repro) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string doc = to_repro_json(repro);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

/// Pulls one typed field out of the parsed object; records an error and
/// leaves `out` untouched when absent or ill-typed.
struct FieldReader {
  const analysis::JsonNode& obj;
  std::string error;  // first problem seen; empty = all good

  void fail(const std::string& key, const char* what) {
    if (error.empty()) error = key + ": " + what;
  }

  const analysis::JsonNode* find(const std::string& key) {
    const analysis::JsonNode* v = obj.find(key);
    if (!v) fail(key, "missing");
    return v;
  }

  /// Repro decoding, one overload per field type (the inverse of
  /// write_field above).
  void read(const std::string& key, double& out) {
    if (const auto* v = find(key)) {
      if (v->kind != analysis::JsonNode::Kind::kNumber) {
        fail(key, "expected a number");
      } else {
        out = v->number;
      }
    }
  }
  /// A repro file is outside input: a fractional number, or one `Int`
  /// cannot hold (1e300, -1 for a size), is an error, never a cast.
  template <typename Int>
  void integer(const std::string& key, Int& out) {
    double d = 0;
    read(key, d);
    if (!error.empty()) return;
    const double limit = std::ldexp(1.0, std::numeric_limits<Int>::digits);
    const double low = std::is_signed_v<Int> ? -limit : 0.0;
    if (!(d >= low && d < limit) || d != std::trunc(d)) {
      fail(key, "expected an integer");
      return;
    }
    out = static_cast<Int>(d);
  }
  void read(const std::string& key, int& out) { integer(key, out); }
  void read(const std::string& key, std::size_t& out) { integer(key, out); }
  void read(const std::string& key, bool& out) {
    if (const auto* v = find(key)) {
      if (v->kind != analysis::JsonNode::Kind::kBool) {
        fail(key, "expected a bool");
      } else {
        out = v->boolean;
      }
    }
  }
  void read(const std::string& key, std::string& out) {
    if (const auto* v = find(key)) {
      if (v->kind != analysis::JsonNode::Kind::kString) {
        fail(key, "expected a string");
      } else {
        out = v->str;
      }
    }
  }
  void read(const std::string& key, harness::RoutingPolicy& out) {
    std::string text;
    read(key, text);
    if (error.empty() && !harness::parse_routing_policy(text, out)) {
      fail(key, "expected \"greedy\" or \"regular\"");
    }
  }
  void read(const std::string& key, harness::SeedField<std::uint64_t> seed) {
    std::string text;
    read(key, text);
    if (!error.empty()) return;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, seed.value);
    if (ec != std::errc() || ptr != end) {
      fail(key, "expected a decimal uint64 string");
    }
  }
};

}  // namespace

std::optional<ReproCase> load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "repro: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto obj = analysis::parse_json_doc(buf.str());
  if (!obj || !obj->is_flat_object()) {
    std::fprintf(stderr, "repro: %s is not a flat JSON object\n",
                 path.c_str());
    return std::nullopt;
  }

  FieldReader r{*obj, {}};
  int version = 0;
  r.read("repro_version", version);
  if (r.error.empty() && version != kReproVersion) {
    std::fprintf(stderr, "repro: %s has version %d, expected %d\n",
                 path.c_str(), version, kReproVersion);
    return std::nullopt;
  }

  ReproCase repro;
  std::string system;
  r.read("system", system);
  r.read("violation", repro.violation);
  harness::for_each_field(repro.scenario,
                          [&r](const char* key, auto&& field) {
                            r.read(key, field);
                          });
  // The control loop replays whatever schedule parses; one it refuses
  // would replay as "no actuator faults".
  std::vector<app::FaultWindow> windows;
  if (!app::parse_fault_schedule(repro.scenario.app_fault_schedule, windows)) {
    r.fail("app_fault_schedule", "expected idx@start+duration entries");
  }
  if (!r.error.empty()) {
    std::fprintf(stderr, "repro: %s: %s\n", path.c_str(), r.error.c_str());
    return std::nullopt;
  }

  bool found = false;
  for (const harness::SystemKind kind : harness::kAllSystems) {
    if (system == harness::to_string(kind)) {
      repro.kind = kind;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "repro: unknown system \"%s\"\n", system.c_str());
    return std::nullopt;
  }
  return repro;
}

}  // namespace refer::verify
