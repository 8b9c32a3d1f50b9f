#include "runner/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>

#include "common/strings.hpp"

namespace refer::runner {

void JsonWriter::prepare_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    assert(stack_.back() == Frame::kArray && "object member needs a key");
    if (has_item_.back()) out_.push_back(',');
    has_item_.back() = true;
  }
}

void JsonWriter::begin_object() {
  prepare_value();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_item_.push_back(false);
}

void JsonWriter::end_object() {
  assert(!stack_.empty() && stack_.back() == Frame::kObject);
  stack_.pop_back();
  has_item_.pop_back();
  out_.push_back('}');
}

void JsonWriter::begin_array() {
  prepare_value();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_item_.push_back(false);
}

void JsonWriter::end_array() {
  assert(!stack_.empty() && stack_.back() == Frame::kArray);
  stack_.pop_back();
  has_item_.pop_back();
  out_.push_back(']');
}

void JsonWriter::key(std::string_view name) {
  assert(!stack_.empty() && stack_.back() == Frame::kObject && !after_key_);
  if (has_item_.back()) out_.push_back(',');
  has_item_.back() = true;
  out_.push_back('"');
  json_escape_append(out_, name);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  prepare_value();
  out_.push_back('"');
  json_escape_append(out_, s);
  out_.push_back('"');
}

void JsonWriter::value(bool b) {
  prepare_value();
  out_ += b ? "true" : "false";
}

void JsonWriter::value(double d) {
  prepare_value();
  if (!std::isfinite(d)) {  // JSON has no inf/nan; null is the convention
    out_ += "null";
    return;
  }
  char buf[32];
  // %.17g round-trips doubles; the decimal point is '.' under the "C"
  // locale the binaries run with (none of them call setlocale).
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
}

void JsonWriter::value(std::int64_t i) {
  prepare_value();
  out_ += std::to_string(i);
}

void JsonWriter::value(std::uint64_t u) {
  prepare_value();
  out_ += std::to_string(u);
}

void JsonWriter::null() {
  prepare_value();
  out_ += "null";
}

}  // namespace refer::runner
