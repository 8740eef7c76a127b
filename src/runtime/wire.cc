#include "runtime/wire.h"

#include <cstring>
#include <sstream>
#include <utility>

namespace dcv {
namespace {

// All integers travel little-endian regardless of host order, written and
// read a byte at a time (no aliasing, no alignment assumptions).

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// Length-prefixed UTF-8/opaque bytes (metric names).
void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Cursor over a received payload; all Get* fail softly by flagging
/// `ok = false` so the caller can return one error for any short body.
struct Cursor {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;
  bool ok = true;

  uint8_t U8() {
    if (pos + 1 > len) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
  uint32_t U32() {
    if (pos + 4 > len) {
      ok = false;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data[pos++]) << (8 * i);
    }
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  uint64_t U64() {
    if (pos + 8 > len) {
      ok = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data[pos++]) << (8 * i);
    }
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!ok || pos + n > len) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

/// Reserves the 4-byte length prefix, returns its offset for patching.
size_t BeginFrame(std::string* out) {
  size_t at = out->size();
  PutU32(0, out);
  return at;
}

void EndFrame(size_t prefix_at, std::string* out) {
  uint32_t payload = static_cast<uint32_t>(out->size() - prefix_at - 4);
  for (int i = 0; i < 4; ++i) {
    (*out)[prefix_at + static_cast<size_t>(i)] =
        static_cast<char>((payload >> (8 * i)) & 0xff);
  }
}

}  // namespace

void AppendEnvelopeFrame(const Envelope& e, std::string* out, uint64_t seq) {
  size_t at = BeginFrame(out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(FrameType::kEnvelope), out);
  PutI32(e.from, out);
  PutI32(e.to, out);
  PutU8(static_cast<uint8_t>(e.msg.kind), out);
  PutU8(e.msg.flag ? 1 : 0, out);
  PutI64(e.msg.epoch, out);
  PutI64(e.msg.value, out);
  PutU64(seq, out);
  EndFrame(at, out);
}

void AppendEnvelopeBatchFrame(const Envelope* envs, size_t count,
                              std::string* out, uint64_t seq) {
  size_t at = BeginFrame(out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(FrameType::kEnvelopeBatch), out);
  PutU32(static_cast<uint32_t>(count), out);
  for (size_t i = 0; i < count; ++i) {
    PutI32(envs[i].from, out);
    PutI32(envs[i].to, out);
    PutU8(static_cast<uint8_t>(envs[i].msg.kind), out);
    PutU8(envs[i].msg.flag ? 1 : 0, out);
    PutI64(envs[i].msg.epoch, out);
    PutI64(envs[i].msg.value, out);
  }
  PutU64(seq, out);
  EndFrame(at, out);
}

void AppendHelloFrame(const HelloFrame& h, std::string* out) {
  size_t at = BeginFrame(out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(FrameType::kHello), out);
  PutU32(h.magic, out);
  PutI32(h.worker, out);
  PutI32(h.num_workers, out);
  PutI32(h.num_sites, out);
  PutU32(h.generation, out);
  PutU64(h.last_seq_received, out);
  PutI64(h.t1_us, out);
  EndFrame(at, out);
}

void AppendHelloAckFrame(const HelloAckFrame& a, std::string* out) {
  size_t at = BeginFrame(out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(FrameType::kHelloAck), out);
  PutU32(a.magic, out);
  PutU8(a.ok, out);
  PutU8(a.virtual_time, out);
  PutI32(a.num_sites, out);
  PutI32(a.num_workers, out);
  PutU32(a.generation, out);
  PutU64(a.last_seq_received, out);
  PutI64(a.t1_us, out);
  PutI64(a.t2_us, out);
  PutI64(a.t3_us, out);
  EndFrame(at, out);
}

void AppendLayoutFrame(const LayoutFrame& l, std::string* out) {
  size_t at = BeginFrame(out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(FrameType::kLayoutUpdate), out);
  PutU32(l.version, out);
  PutI32(l.num_sites, out);
  PutI32(l.num_shards, out);
  for (int32_t s : l.starts) {
    PutI32(s, out);
  }
  EndFrame(at, out);
}

void AppendLayoutAckFrame(const LayoutAckFrame& a, std::string* out) {
  size_t at = BeginFrame(out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(FrameType::kLayoutAck), out);
  PutU32(a.version, out);
  EndFrame(at, out);
}

Status AppendTelemetryFrame(const TelemetryFrame& t, std::string* out) {
  std::string frame;
  size_t at = BeginFrame(&frame);
  PutU8(kWireVersion, &frame);
  PutU8(static_cast<uint8_t>(FrameType::kTelemetry), &frame);
  PutI32(t.worker, &frame);
  PutU8(t.final_flush, &frame);
  PutI64(t.wall_time_us, &frame);
  PutI64(t.clock_offset_us, &frame);
  PutU32(static_cast<uint32_t>(t.metrics.counters.size()), &frame);
  for (const auto& [name, v] : t.metrics.counters) {
    PutStr(name, &frame);
    PutI64(v, &frame);
  }
  PutU32(static_cast<uint32_t>(t.metrics.gauges.size()), &frame);
  for (const auto& [name, v] : t.metrics.gauges) {
    PutStr(name, &frame);
    PutF64(v, &frame);
  }
  PutU32(static_cast<uint32_t>(t.metrics.histograms.size()), &frame);
  for (const auto& [name, h] : t.metrics.histograms) {
    if (h.counts.size() != h.bounds.size() + 1) {
      return InvalidArgumentError("telemetry histogram '" + name +
                                  "' has inconsistent bucket shape");
    }
    PutStr(name, &frame);
    PutU32(static_cast<uint32_t>(h.bounds.size()), &frame);
    for (double b : h.bounds) {
      PutF64(b, &frame);
    }
    for (int64_t c : h.counts) {
      PutI64(c, &frame);
    }
    PutI64(h.count, &frame);
    PutF64(h.sum, &frame);
    PutF64(h.min, &frame);
    PutF64(h.max, &frame);
  }
  PutU32(static_cast<uint32_t>(t.events.size()), &frame);
  for (const TelemetryTraceEvent& e : t.events) {
    PutU8(e.kind, &frame);
    PutI64(e.epoch, &frame);
    PutI32(e.site, &frame);
    PutI64(e.value, &frame);
    PutI64(e.duration_us, &frame);
    PutI64(e.ts_us, &frame);
  }
  EndFrame(at, &frame);
  if (frame.size() - 4 > kMaxTelemetryPayload) {
    return InvalidArgumentError(
        "telemetry frame payload " + std::to_string(frame.size() - 4) +
        " exceeds kMaxTelemetryPayload; trim the trace-event batch");
  }
  out->append(frame);
  return OkStatus();
}

namespace {

/// Kind and range checks shared by single and batched envelope frames.
Status CheckEnvelope(uint8_t kind, const Envelope& e,
                     const WireEndpoint& endpoint) {
  if (kind > static_cast<uint8_t>(kLastWireKind)) {
    return InvalidArgumentError("invalid actor message kind " +
                                std::to_string(kind));
  }
  if (endpoint.worker >= 0) {
    return CheckRangeCommand(e, endpoint.num_sites, endpoint.num_workers,
                             endpoint.worker);
  }
  return OkStatus();
}

}  // namespace

Result<WireFrame> DecodeFramePayload(const uint8_t* data, size_t len,
                                     const WireEndpoint& endpoint) {
  Cursor c{data, len};
  uint8_t version = c.U8();
  uint8_t type = c.U8();
  if (!c.ok) {
    return InvalidArgumentError("frame payload shorter than its header");
  }
  if (version != kWireVersion) {
    return InvalidArgumentError("wire version mismatch: got " +
                                std::to_string(version) + ", want " +
                                std::to_string(kWireVersion));
  }
  WireFrame frame;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kEnvelope: {
      frame.type = FrameType::kEnvelope;
      frame.envelope.from = c.I32();
      frame.envelope.to = c.I32();
      uint8_t kind = c.U8();
      frame.envelope.msg.flag = c.U8() != 0;
      frame.envelope.msg.epoch = c.I64();
      frame.envelope.msg.value = c.I64();
      frame.seq = c.U64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed envelope frame body");
      }
      frame.envelope.msg.kind = static_cast<ActorMsgKind>(kind);
      DCV_RETURN_IF_ERROR(CheckEnvelope(kind, frame.envelope, endpoint));
      return frame;
    }
    case FrameType::kEnvelopeBatch: {
      frame.type = FrameType::kEnvelopeBatch;
      uint32_t count = c.U32();
      // Each envelope body is 26 bytes; validating the count against the
      // bytes actually present bounds the allocation before resize.
      if (!c.ok || count < 1 || count > kMaxBatchEnvelopes ||
          static_cast<size_t>(count) > (len - c.pos) / 26) {
        return InvalidArgumentError("malformed envelope batch header");
      }
      frame.batch.resize(count);
      for (Envelope& e : frame.batch) {
        e.from = c.I32();
        e.to = c.I32();
        uint8_t kind = c.U8();
        e.msg.flag = c.U8() != 0;
        e.msg.epoch = c.I64();
        e.msg.value = c.I64();
        e.msg.kind = static_cast<ActorMsgKind>(kind);
        if (c.ok) {
          if (Status st = CheckEnvelope(kind, e, endpoint); !st.ok()) {
            return InvalidArgumentError(std::string(st.message()) +
                                        " in envelope batch");
          }
        }
      }
      frame.seq = c.U64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed envelope batch body");
      }
      return frame;
    }
    case FrameType::kHello: {
      frame.type = FrameType::kHello;
      frame.hello.magic = c.U32();
      frame.hello.worker = c.I32();
      frame.hello.num_workers = c.I32();
      frame.hello.num_sites = c.I32();
      frame.hello.generation = c.U32();
      frame.hello.last_seq_received = c.U64();
      frame.hello.t1_us = c.I64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed hello frame body");
      }
      if (frame.hello.magic != kWireMagic) {
        return InvalidArgumentError("hello magic mismatch (not a dcv peer?)");
      }
      return frame;
    }
    case FrameType::kHelloAck: {
      frame.type = FrameType::kHelloAck;
      frame.hello_ack.magic = c.U32();
      frame.hello_ack.ok = c.U8();
      frame.hello_ack.virtual_time = c.U8();
      frame.hello_ack.num_sites = c.I32();
      frame.hello_ack.num_workers = c.I32();
      frame.hello_ack.generation = c.U32();
      frame.hello_ack.last_seq_received = c.U64();
      frame.hello_ack.t1_us = c.I64();
      frame.hello_ack.t2_us = c.I64();
      frame.hello_ack.t3_us = c.I64();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed hello-ack frame body");
      }
      if (frame.hello_ack.magic != kWireMagic) {
        return InvalidArgumentError("hello-ack magic mismatch");
      }
      return frame;
    }
    case FrameType::kLayoutUpdate: {
      frame.type = FrameType::kLayoutUpdate;
      frame.layout.version = c.U32();
      frame.layout.num_sites = c.I32();
      frame.layout.num_shards = c.I32();
      if (!c.ok || frame.layout.num_shards < 1 ||
          frame.layout.num_shards > kMaxWireShards) {
        return InvalidArgumentError("malformed layout frame header");
      }
      frame.layout.starts.resize(
          static_cast<size_t>(frame.layout.num_shards) + 1);
      for (int32_t& s : frame.layout.starts) {
        s = c.I32();
      }
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed layout frame body");
      }
      // Boundaries must be a non-descending cover of [0, num_sites]:
      // installing anything else would break the worker's routing.
      if (frame.layout.starts.front() != 0 ||
          frame.layout.starts.back() != frame.layout.num_sites) {
        return InvalidArgumentError("layout frame boundaries do not cover "
                                    "[0, num_sites]");
      }
      for (size_t i = 1; i < frame.layout.starts.size(); ++i) {
        if (frame.layout.starts[i] < frame.layout.starts[i - 1]) {
          return InvalidArgumentError("layout frame boundaries descend");
        }
      }
      return frame;
    }
    case FrameType::kLayoutAck: {
      frame.type = FrameType::kLayoutAck;
      frame.layout_ack.version = c.U32();
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed layout-ack frame body");
      }
      return frame;
    }
    case FrameType::kTelemetry: {
      frame.type = FrameType::kTelemetry;
      TelemetryFrame& t = frame.telemetry;
      t.worker = c.I32();
      t.final_flush = c.U8();
      t.wall_time_us = c.I64();
      t.clock_offset_us = c.I64();
      // Every element count is validated against the bytes actually left in
      // the payload (8 = smallest possible element) so a corrupt count
      // can't force an unbounded allocation.
      auto plausible = [&](uint32_t n) {
        return c.ok && static_cast<size_t>(n) <= (len - c.pos) / 8;
      };
      uint32_t n_counters = c.U32();
      if (!plausible(n_counters)) {
        return InvalidArgumentError("malformed telemetry counter table");
      }
      for (uint32_t i = 0; i < n_counters && c.ok; ++i) {
        std::string name = c.Str();
        t.metrics.counters[std::move(name)] = c.I64();
      }
      uint32_t n_gauges = c.U32();
      if (!plausible(n_gauges)) {
        return InvalidArgumentError("malformed telemetry gauge table");
      }
      for (uint32_t i = 0; i < n_gauges && c.ok; ++i) {
        std::string name = c.Str();
        t.metrics.gauges[std::move(name)] = c.F64();
      }
      uint32_t n_histograms = c.U32();
      if (!plausible(n_histograms)) {
        return InvalidArgumentError("malformed telemetry histogram table");
      }
      for (uint32_t i = 0; i < n_histograms && c.ok; ++i) {
        std::string name = c.Str();
        obs::HistogramSnapshot h;
        uint32_t n_bounds = c.U32();
        if (!plausible(n_bounds)) {
          return InvalidArgumentError("malformed telemetry histogram bounds");
        }
        h.bounds.resize(n_bounds);
        for (double& b : h.bounds) {
          b = c.F64();
        }
        h.counts.resize(static_cast<size_t>(n_bounds) + 1);
        for (int64_t& cnt : h.counts) {
          cnt = c.I64();
        }
        h.count = c.I64();
        h.sum = c.F64();
        h.min = c.F64();
        h.max = c.F64();
        t.metrics.histograms[std::move(name)] = std::move(h);
      }
      uint32_t n_events = c.U32();
      if (!plausible(n_events)) {
        return InvalidArgumentError("malformed telemetry event batch");
      }
      t.events.resize(n_events);
      for (TelemetryTraceEvent& e : t.events) {
        e.kind = c.U8();
        e.epoch = c.I64();
        e.site = c.I32();
        e.value = c.I64();
        e.duration_us = c.I64();
        e.ts_us = c.I64();
        if (c.ok && e.kind > static_cast<uint8_t>(
                                 obs::TraceEventKind::kLastKind)) {
          return InvalidArgumentError("invalid telemetry trace-event kind " +
                                      std::to_string(e.kind));
        }
      }
      if (!c.ok || c.pos != len) {
        return InvalidArgumentError("malformed telemetry frame body");
      }
      return frame;
    }
  }
  return InvalidArgumentError("unknown frame type " + std::to_string(type));
}

void FrameReader::Append(const uint8_t* data, size_t n) {
  buffer_.append(reinterpret_cast<const char*>(data), n);
}

Result<bool> FrameReader::Next(WireFrame* out) {
  if (buffer_.size() - pos_ < 4) {
    return false;
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(buffer_.data()) + pos_;
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) {
    payload |= static_cast<uint32_t>(base[i]) << (8 * i);
  }
  if (payload > kMaxTelemetryPayload) {
    // No frame type is ever this big: fail fast on the length alone, no
    // need to wait for more bytes of a corrupt stream.
    return InvalidArgumentError("oversized frame payload (" +
                                std::to_string(payload) +
                                " bytes): corrupt stream");
  }
  if (payload > kMaxFramePayload) {
    // Only telemetry and envelope-batch frames may exceed the data-frame
    // cap; peek the type byte (offset 5: length(4) + version(1)) before
    // trusting the length, each against its own cap.
    if (buffer_.size() - pos_ < 6) {
      return false;  // Need the version+type bytes to judge the length.
    }
    const bool telemetry = base[5] == static_cast<uint8_t>(FrameType::kTelemetry);
    const bool batch =
        base[5] == static_cast<uint8_t>(FrameType::kEnvelopeBatch);
    if (!(telemetry || (batch && payload <= kMaxBatchPayload))) {
      return InvalidArgumentError("oversized frame payload (" +
                                  std::to_string(payload) +
                                  " bytes): corrupt stream");
    }
  }
  if (buffer_.size() - pos_ < 4 + static_cast<size_t>(payload)) {
    return false;
  }
  DCV_ASSIGN_OR_RETURN(WireFrame frame,
                       DecodeFramePayload(base + 4, payload, endpoint_));
  *out = frame;
  pos_ += 4 + static_cast<size_t>(payload);
  // Compact once the consumed prefix dominates, keeping amortized O(1).
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

Status FrameReader::Finish() const {
  size_t tail = buffered();
  if (tail == 0) {
    return OkStatus();
  }
  return InternalError("truncated frame: stream ended with " +
                       std::to_string(tail) +
                       " byte(s) of an incomplete frame");
}

std::string FrameReader::TakeBuffered() {
  std::string rest = buffer_.substr(pos_);
  buffer_.clear();
  pos_ = 0;
  return rest;
}

std::string SocketStats::ToString() const {
  std::ostringstream os;
  os << "frames_tx=" << frames_sent << " frames_rx=" << frames_received
     << " envelopes_tx=" << envelopes_sent
     << " envelopes_rx=" << envelopes_received
     << " bytes_tx=" << bytes_sent << " bytes_rx=" << bytes_received
     << " connect_attempts=" << connect_attempts
     << " connect_retries=" << connect_retries
     << " accept_timeouts=" << accept_timeouts
     << " decode_errors=" << decode_errors << " disconnects=" << disconnects
     << " truncated_frames=" << truncated_frames
     << " reconnects=" << reconnects
     << " replayed_frames=" << replayed_frames
     << " duplicate_frames=" << duplicate_frames;
  return os.str();
}

}  // namespace dcv
