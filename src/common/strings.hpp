// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace refer {

/// Splits on a single-character delimiter; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Joins with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True iff s consists only of characters in the given alphabet size
/// ('0'..'0'+alphabet-1).
[[nodiscard]] bool all_digits_below(std::string_view s, int alphabet) noexcept;

/// Appends `s` escaped for the inside of a JSON string literal: quote,
/// backslash, \n, \r and \t by name, every other byte below 0x20 as
/// \u00xx, all other bytes as they are.  The one escaper behind the
/// results, repro and trace writers.
void json_escape_append(std::string& out, std::string_view s);

}  // namespace refer
