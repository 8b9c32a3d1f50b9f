// The one JSON reader of the repository.
//
// Every file the tools read back goes through parse_json_doc: results
// documents (timeline_report), JSONL trace records (trace_report, one
// call per line) and repro files (verify::load_repro).  They are all
// outside input, so the reader takes one strict RFC 8259 grammar and
// refuses what no writer emits:
//   - numbers in exact JSON syntax (no inf / nan / hex / leading '+',
//     no leading zeros, digits on both sides of '.'), and the value must
//     fit a finite double -- 1e999 is an error, never infinity;
//   - the eight standard escapes, with \uXXXX read as one byte below
//     0x80 and as '?' above (the writers only escape control bytes);
//   - no raw control byte inside a string;
//   - no duplicate key within one object;
//   - at most kMaxJsonDepth nested arrays / objects.
// Object members keep document order, and unknown keys are kept, not
// refused: the callers decide which keys they need.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace refer::analysis {

/// Nesting cap; results documents nest about 7 deep.
inline constexpr int kMaxJsonDepth = 64;

struct JsonNode {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonNode> items;  ///< kArray elements
  std::vector<std::pair<std::string, JsonNode>> members;  ///< kObject

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }

  /// An object whose members are all scalars: the shape of one trace
  /// record and of a repro file.
  [[nodiscard]] bool is_flat_object() const noexcept;

  /// Member lookup (linear; documents have tens of keys), or nullptr
  /// when absent / not an object.
  [[nodiscard]] const JsonNode* find(std::string_view key) const noexcept;

  /// Typed accessors with defaults -- absent or ill-typed reads the
  /// fallback, which is what schema-tolerant loading wants.
  [[nodiscard]] double number_or(double fallback) const noexcept {
    return kind == Kind::kNumber ? number : fallback;
  }
  [[nodiscard]] bool bool_or(bool fallback) const noexcept {
    return kind == Kind::kBool ? boolean : fallback;
  }
  [[nodiscard]] const std::string* string_or_null() const noexcept {
    return kind == Kind::kString ? &str : nullptr;
  }

  /// find(key) + number_or: the missing-key default in one step.
  [[nodiscard]] double member_number(std::string_view key,
                                     double fallback) const noexcept {
    const JsonNode* v = find(key);
    return v ? v->number_or(fallback) : fallback;
  }

  /// find(key) + string_or_null: the member's text, "" when absent or
  /// not a string.
  [[nodiscard]] std::string_view member_string(
      std::string_view key) const noexcept {
    const JsonNode* v = find(key);
    return v && v->kind == Kind::kString ? std::string_view(v->str)
                                         : std::string_view();
  }

  /// The member's array of numbers ([] when absent / not an array);
  /// non-number elements read as 0.
  [[nodiscard]] std::vector<double> member_numbers(
      std::string_view key) const;
};

/// Parses one complete JSON text (surrounding whitespace allowed).
/// Returns nullopt on anything outside the grammar above -- the callers
/// treat malformed input as a hard error, never a partial read.
[[nodiscard]] std::optional<JsonNode> parse_json_doc(std::string_view text);

}  // namespace refer::analysis
