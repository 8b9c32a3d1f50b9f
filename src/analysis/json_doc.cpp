#include "analysis/json_doc.hpp"

#include <algorithm>
#include <charconv>

namespace refer::analysis {

bool JsonNode::is_flat_object() const noexcept {
  return is_object() &&
         std::none_of(members.begin(), members.end(), [](const auto& m) {
           return m.second.is_object() || m.second.is_array();
         });
}

const JsonNode* JsonNode::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::vector<double> JsonNode::member_numbers(std::string_view key) const {
  std::vector<double> out;
  const JsonNode* v = find(key);
  if (!v || v->kind != Kind::kArray) return out;
  out.reserve(v->items.size());
  for (const JsonNode& item : v->items) out.push_back(item.number_or(0));
  return out;
}

namespace {

/// Recursive descent over the RFC 8259 grammar; every production returns
/// false on the first byte outside it.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool at_end() const noexcept { return pos >= text.size(); }
  [[nodiscard]] bool next_is(char c) const noexcept {
    return !at_end() && text[pos] == c;
  }

  /// JSON whitespace is space, tab, LF and CR -- nothing else.
  void skip_ws() noexcept {
    while (next_is(' ') || next_is('\t') || next_is('\n') || next_is('\r')) {
      ++pos;
    }
  }

  bool eat(char c) noexcept {
    skip_ws();
    if (!next_is(c)) return false;
    ++pos;
    return true;
  }

  bool literal(std::string_view word) noexcept {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool value(JsonNode& out, int depth) {
    skip_ws();
    if (at_end()) return false;
    switch (text[pos]) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"':
        out.kind = JsonNode::Kind::kString;
        return string(out.str);
      case 't':
        out.kind = JsonNode::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonNode::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");  // JsonNode's default kind
      default:
        out.kind = JsonNode::Kind::kNumber;
        return number(out.number);
    }
  }

  bool object(JsonNode& out, int depth) {
    if (depth > kMaxJsonDepth) return false;
    out.kind = JsonNode::Kind::kObject;
    ++pos;  // '{'
    if (eat('}')) return true;
    do {
      skip_ws();
      std::string key;
      if (!string(key) || out.find(key) != nullptr || !eat(':')) {
        return false;
      }
      JsonNode& member = out.members.emplace_back(std::move(key), JsonNode{})
                             .second;
      if (!value(member, depth)) return false;
    } while (eat(','));
    return eat('}');
  }

  bool array(JsonNode& out, int depth) {
    if (depth > kMaxJsonDepth) return false;
    out.kind = JsonNode::Kind::kArray;
    ++pos;  // '['
    if (eat(']')) return true;
    do {
      if (!value(out.items.emplace_back(), depth)) return false;
    } while (eat(','));
    return eat(']');
  }

  bool string(std::string& out) {
    if (!next_is('"')) return false;
    ++pos;
    out.clear();
    while (!at_end()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return false;
      switch (text[pos++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          const char* hex = text.data() + pos;
          unsigned code = 0;
          if (text.size() - pos < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            return false;
          }
          pos += 4;
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool digits() noexcept {
    const std::size_t from = pos;
    while (!at_end() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > from;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, read as a finite
  /// double: from_chars reports 1e999 (and 1e-999) out of range.
  bool number(double& out) {
    const std::size_t start = pos;
    if (next_is('-')) ++pos;
    if (next_is('0')) {
      ++pos;
    } else if (!digits()) {
      return false;
    }
    if (next_is('.')) {
      ++pos;
      if (!digits()) return false;
    }
    if (next_is('e') || next_is('E')) {
      ++pos;
      if (next_is('+') || next_is('-')) ++pos;
      if (!digits()) return false;
    }
    const char* last = text.data() + pos;
    const auto [ptr, ec] = std::from_chars(text.data() + start, last, out);
    return ec == std::errc() && ptr == last;
  }
};

}  // namespace

std::optional<JsonNode> parse_json_doc(std::string_view text) {
  Parser p{text};
  JsonNode root;
  if (!p.value(root, 0)) return std::nullopt;
  p.skip_ws();
  if (!p.at_end()) return std::nullopt;  // trailing garbage
  return root;
}

}  // namespace refer::analysis
