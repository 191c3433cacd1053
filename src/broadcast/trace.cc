#include "broadcast/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>

#include "common/check.h"

namespace dtree::bcast {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kProbe:
      return "probe";
    case TraceEventKind::kDoze:
      return "doze";
    case TraceEventKind::kIndexRead:
      return "index";
    case TraceEventKind::kBucketRead:
      return "bucket";
    case TraceEventKind::kLoss:
      return "loss";
    case TraceEventKind::kRetune:
      return "retune";
    case TraceEventKind::kCorruption:
      return "corruption_detected";
    case TraceEventKind::kFallbackScan:
      return "fallback_scan";
    case TraceEventKind::kEpochSwitch:
      return "epoch_switch";
    case TraceEventKind::kCacheHit:
      return "cache_hit";
  }
  return "?";
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  DTREE_DCHECK(n >= 0 && n < static_cast<int>(sizeof(buf)));
  out->append(buf, static_cast<size_t>(
                       std::clamp(n, 0, static_cast<int>(sizeof(buf)) - 1)));
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendEventsJson(std::string* out,
                      const std::vector<TraceEvent>& events) {
  out->push_back('[');
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out->append(", ");
    AppendF(out, "{\"t\": \"%s\", \"pos\": %lld",
            TraceEventKindName(e.kind), static_cast<long long>(e.pos));
    switch (e.kind) {
      case TraceEventKind::kDoze:
        AppendF(out, ", \"dur\": %.10g", e.dur);
        break;
      case TraceEventKind::kIndexRead:
        AppendF(out, ", \"pkt\": %d", e.packet);
        if (e.node >= 0) {
          AppendF(out, ", \"node\": %d, \"depth\": %d", e.node, e.depth);
        }
        break;
      case TraceEventKind::kBucketRead:
        AppendF(out, ", \"n\": %d", e.packet);
        break;
      case TraceEventKind::kRetune:
        AppendF(out, ", \"attempt\": %d", e.attempt);
        break;
      case TraceEventKind::kFallbackScan:
        AppendF(out, ", \"n\": %d, \"attempt\": %d", e.packet, e.attempt);
        break;
      case TraceEventKind::kEpochSwitch:
        AppendF(out, ", \"epoch\": %d, \"attempt\": %d", e.packet,
                e.attempt);
        break;
      case TraceEventKind::kCacheHit:
        AppendF(out, ", \"epoch\": %d", e.packet);
        break;
      case TraceEventKind::kProbe:
      case TraceEventKind::kLoss:
      case TraceEventKind::kCorruption:
        break;
    }
    out->push_back('}');
  }
  out->push_back(']');
}

std::string FormatQueryTraceJson(const QueryTrace& trace,
                                 const std::string& label) {
  std::string out;
  out.reserve(128 + trace.events.size() * 48);
  AppendF(&out, "{\"q\": %" PRIu64, trace.query_index);
  if (trace.client_id >= 0) {
    AppendF(&out, ", \"client\": %lld",
            static_cast<long long>(trace.client_id));
  }
  if (!label.empty()) {
    out += ", \"cell\": ";
    AppendJsonString(&out, label);
  }
  AppendF(&out, ", \"x\": %.10g, \"y\": %.10g, \"region\": %d", trace.x,
          trace.y, trace.region);
  AppendF(&out, ", \"arrival\": %.10g, \"latency\": %.10g", trace.arrival,
          trace.latency);
  AppendF(&out, ", \"tuning\": %d, \"retries\": %d, \"lost\": %d",
          trace.tuning_total, trace.retries, trace.lost_packets);
  AppendF(&out, ", \"corrupted\": %d, \"fallback\": %s",
          trace.corrupted_packets, trace.fallback_scan ? "true" : "false");
  AppendF(&out, ", \"unrecoverable\": %s",
          trace.unrecoverable ? "true" : "false");
  if (trace.versioned) {
    AppendF(&out, ", \"epoch\": %u, \"epoch_switches\": %d",
            static_cast<unsigned>(trace.epoch), trace.epoch_switches);
  }
  if (trace.cache_hit) out += ", \"cache_hit\": true";
  out += ", \"events\": ";
  AppendEventsJson(&out, trace.events);
  out.push_back('}');
  return out;
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    std::fprintf(stderr, "JsonlTraceSink: cannot write %s\n", path.c_str());
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::Consume(const QueryTrace& trace) {
  const std::string line = FormatQueryTraceJson(trace, label_);
  if (out_ != nullptr) {
    *out_ += line;
    out_->push_back('\n');
  } else if (file_ != nullptr) {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
  }
  ++lines_;
}

CycleProfiler::CycleProfiler(int64_t cycle_packets, int position_bins)
    : cycle_packets_(cycle_packets) {
  DTREE_CHECK(cycle_packets > 0);
  DTREE_CHECK(position_bins > 0);
  position_reads_.assign(static_cast<size_t>(position_bins), 0);
}

void CycleProfiler::BinPosition(int64_t pos, int64_t packets) {
  const int64_t bins = static_cast<int64_t>(position_reads_.size());
  for (int64_t k = 0; k < packets; ++k) {
    const int64_t in_cycle = (pos + k) % cycle_packets_;
    position_reads_[static_cast<size_t>(in_cycle * bins / cycle_packets_)]++;
  }
}

void CycleProfiler::Consume(const QueryTrace& trace) {
  ++queries_;
  latency_.Add(trace.latency);
  tuning_.Add(static_cast<double>(trace.tuning_total));
  retries_.Add(static_cast<double>(trace.retries));
  for (const TraceEvent& e : trace.events) {
    switch (e.kind) {
      case TraceEventKind::kProbe:
        BinPosition(e.pos, 1);
        break;
      case TraceEventKind::kDoze:
        doze_.Add(e.dur);
        break;
      case TraceEventKind::kIndexRead:
        BinPosition(e.pos, 1);
        if (e.depth >= 0) {
          if (static_cast<size_t>(e.depth) >= level_reads_.size()) {
            level_reads_.resize(static_cast<size_t>(e.depth) + 1, 0);
          }
          ++level_reads_[static_cast<size_t>(e.depth)];
        } else {
          ++unattributed_reads_;
        }
        break;
      case TraceEventKind::kBucketRead:
        BinPosition(e.pos, e.packet);
        break;
      case TraceEventKind::kFallbackScan:
        // Packets listened to while scanning for the bucket: awake time,
        // binned like any other read.
        BinPosition(e.pos, e.packet);
        break;
      case TraceEventKind::kLoss:
      case TraceEventKind::kRetune:
      case TraceEventKind::kCorruption:
      case TraceEventKind::kEpochSwitch:
      case TraceEventKind::kCacheHit:
        // A cache hit keeps the receiver asleep: no awake packets to bin.
        break;
    }
  }
}

}  // namespace dtree::bcast
