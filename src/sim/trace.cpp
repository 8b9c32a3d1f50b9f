#include "sim/trace.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "common/strings.hpp"

namespace refer::sim {

const char* to_string(TraceEvent event) noexcept {
  switch (event) {
    case TraceEvent::kUnicastQueued: return "unicast_queued";
    case TraceEvent::kUnicastDelivered: return "unicast_delivered";
    case TraceEvent::kUnicastFailed: return "unicast_failed";
    case TraceEvent::kBroadcast: return "broadcast";
    case TraceEvent::kNodeDown: return "node_down";
    case TraceEvent::kNodeUp: return "node_up";
    case TraceEvent::kPacketSent: return "packet_sent";
    case TraceEvent::kHopForward: return "hop_forward";
    case TraceEvent::kFailover: return "failover";
    case TraceEvent::kPacketDropped: return "packet_dropped";
    case TraceEvent::kPacketDelivered: return "packet_delivered";
    case TraceEvent::kQosDeadlineMiss: return "qos_deadline_miss";
    case TraceEvent::kTraceHeader: return "trace_header";
    case TraceEvent::kAppRegister: return "app_register";
    case TraceEvent::kAppKeepaliveMiss: return "app_keepalive_miss";
    case TraceEvent::kAppActuate: return "app_actuate";
    case TraceEvent::kAppLoopComplete: return "app_loop_complete";
    case TraceEvent::kAppLoopMiss: return "app_loop_miss";
    case TraceEvent::kAppActuatorDown: return "app_actuator_down";
    case TraceEvent::kAppActuatorUp: return "app_actuator_up";
    case TraceEvent::kTraceEventCount: break;
  }
  return "?";
}

const char* to_string(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kNone: return "none";
    case DropReason::kLinkFailed: return "link_failed";
    case DropReason::kNoActuator: return "no_actuator";
    case DropReason::kOverlayEntryFailed: return "overlay_entry_failed";
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kAllSuccessorsFailed: return "all_successors_failed";
    case DropReason::kFloodFailed: return "flood_failed";
    case DropReason::kDropReasonCount: break;
  }
  return "?";
}

namespace {

/// printf-appends to `out` (records are short; 192 bytes covers the
/// longest fixed-key burst by an order of magnitude).
[[gnu::format(printf, 2, 3)]] void append_fmt(std::string& out,
                                              const char* fmt, ...) {
  char buf[192];
  std::va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof buf - 1));
}

}  // namespace

JsonlTraceWriter::JsonlTraceWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (!file_) {
    throw std::runtime_error("JsonlTraceWriter: cannot open " + path);
  }
  buffer_.reserve(kBatchBytes + 512);
}

JsonlTraceWriter::~JsonlTraceWriter() {
  if (file_) {
    flush();
    std::fclose(file_);
  }
}

void JsonlTraceWriter::flush() noexcept {
  if (!file_) return;
  if (!buffer_.empty()) {
    std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    buffer_.clear();
  }
  std::fflush(file_);
}

void JsonlTraceWriter::operator()(const TraceRecord& record) {
  append_fmt(buffer_,
             "{\"t\":%.6f,\"event\":\"%s\",\"from\":%d,\"to\":%d,"
             "\"bytes\":%zu,\"bucket\":%d",
             record.t, to_string(record.event), record.from, record.to,
             record.bytes, static_cast<int>(record.bucket));
  if (record.packet >= 0) {
    append_fmt(buffer_, ",\"packet\":%lld",
               static_cast<long long>(record.packet));
  }
  if (record.reason != DropReason::kNone) {
    append_fmt(buffer_, ",\"reason\":\"%s\"", to_string(record.reason));
  }
  if (record.hop_index >= 0) {
    append_fmt(buffer_, ",\"hop\":%d", record.hop_index);
  }
  if (record.alt_index >= 0) {
    append_fmt(buffer_, ",\"alt\":%d", record.alt_index);
  }
  if (record.nominal_len >= 0) {
    append_fmt(buffer_, ",\"nominal_len\":%d", record.nominal_len);
  }
  if (record.degree >= 0) {
    append_fmt(buffer_, ",\"degree\":%d", record.degree);
  }
  if (!record.policy.empty()) {
    buffer_ += ",\"policy\":\"";
    json_escape_append(buffer_, record.policy);
    buffer_ += '"';
  }
  if (!record.at_label.empty()) {
    buffer_ += ",\"at\":\"";
    json_escape_append(buffer_, record.at_label);
    buffer_ += '"';
  }
  if (!record.dst_label.empty()) {
    buffer_ += ",\"dst\":\"";
    json_escape_append(buffer_, record.dst_label);
    buffer_ += '"';
  }
  if (!record.next_label.empty()) {
    buffer_ += ",\"next\":\"";
    json_escape_append(buffer_, record.next_label);
    buffer_ += '"';
  }
  buffer_ += "}\n";
  ++written_;
  if (buffer_.size() >= kBatchBytes) {
    std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    buffer_.clear();
  }
}

}  // namespace refer::sim
