#include "runtime/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace dcv {
namespace {

Envelope MakeEnvelope(int32_t from, int32_t to, ActorMsgKind kind,
                      int64_t epoch, int64_t value, bool flag) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.msg.kind = kind;
  e.msg.epoch = epoch;
  e.msg.value = value;
  e.msg.flag = flag;
  return e;
}

void ExpectEnvelopeEq(const Envelope& want, const Envelope& got) {
  EXPECT_EQ(want.from, got.from);
  EXPECT_EQ(want.to, got.to);
  EXPECT_EQ(want.msg.kind, got.msg.kind);
  EXPECT_EQ(want.msg.epoch, got.msg.epoch);
  EXPECT_EQ(want.msg.value, got.msg.value);
  EXPECT_EQ(want.msg.flag, got.msg.flag);
}

TEST(WireTest, EnvelopeRoundTripAllKinds) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(kLastWireKind); ++k) {
    Envelope e = MakeEnvelope(
        /*from=*/kCoordinatorId, /*to=*/7, static_cast<ActorMsgKind>(k),
        /*epoch=*/-1, /*value=*/INT64_MIN, /*flag=*/k % 2 == 0);
    std::string buf;
    AppendEnvelopeFrame(e, &buf);
    auto frame = DecodeFramePayload(
        reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    ASSERT_EQ(frame->type, FrameType::kEnvelope);
    ExpectEnvelopeEq(e, frame->envelope);
  }
}

TEST(WireTest, HelloRoundTrip) {
  HelloFrame h;
  h.worker = 3;
  h.num_workers = 4;
  h.num_sites = 17;
  std::string buf;
  AppendHelloFrame(h, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kHello);
  EXPECT_EQ(frame->hello.worker, 3);
  EXPECT_EQ(frame->hello.num_workers, 4);
  EXPECT_EQ(frame->hello.num_sites, 17);
}

TEST(WireTest, HelloAckRoundTrip) {
  HelloAckFrame a;
  a.ok = 1;
  a.virtual_time = 0;
  a.num_sites = 9;
  a.num_workers = 2;
  std::string buf;
  AppendHelloAckFrame(a, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kHelloAck);
  EXPECT_EQ(frame->hello_ack.ok, 1);
  EXPECT_EQ(frame->hello_ack.virtual_time, 0);
  EXPECT_EQ(frame->hello_ack.num_sites, 9);
  EXPECT_EQ(frame->hello_ack.num_workers, 2);
}

TEST(WireTest, RejectsVersionMismatch) {
  std::string buf;
  AppendHelloFrame(HelloFrame{}, &buf);
  buf[4] = static_cast<char>(kWireVersion + 1);  // Version byte.
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("wire version"), std::string::npos);
}

TEST(WireTest, RejectsBadMagicAndBadKind) {
  std::string hello;
  AppendHelloFrame(HelloFrame{}, &hello);
  hello[6] = 'X';  // First magic byte.
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(hello.data()) + 4,
                   hello.size() - 4)
                   .ok());

  std::string env;
  AppendEnvelopeFrame(Envelope{}, &env);
  env[14] = 50;  // ActorMsgKind byte, way out of enum range.
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(env.data()) + 4, env.size() - 4);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("message kind"), std::string::npos);
}

TEST(WireTest, RejectsShortAndOverlongBodies) {
  std::string buf;
  AppendEnvelopeFrame(Envelope{}, &buf);
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(buf.data()) + 4;
  // Every truncation of the payload fails rather than decoding garbage.
  for (size_t len = 0; len < buf.size() - 4; ++len) {
    EXPECT_FALSE(DecodeFramePayload(payload, len).ok()) << "len=" << len;
  }
  // Trailing bytes are corruption too (fixed layouts are exact).
  std::string padded = buf + std::string(1, '\0');
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(padded.data()) + 4,
                   padded.size() - 4)
                   .ok());
}

TEST(WireTest, ReaderReassemblesByteAtATime) {
  std::vector<Envelope> sent;
  std::string stream;
  for (int i = 0; i < 20; ++i) {
    Envelope e = MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kAlarm,
                              1000 + i, -i * 7, i % 3 == 0);
    sent.push_back(e);
    AppendEnvelopeFrame(e, &stream);
  }
  FrameReader reader;
  std::vector<Envelope> got;
  for (char byte : stream) {
    reader.Append(reinterpret_cast<const uint8_t*>(&byte), 1);
    for (;;) {
      WireFrame frame;
      auto r = reader.Next(&frame);
      ASSERT_TRUE(r.ok()) << r.status().message();
      if (!*r) {
        break;
      }
      got.push_back(frame.envelope);
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectEnvelopeEq(sent[i], got[i]);
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ReaderHandlesRandomChunkingAndMixedTypes) {
  // Fuzz-ish: a long stream of mixed frames fed in random-size chunks must
  // come out intact regardless of where the chunk boundaries fall.
  Rng rng(1234);
  std::string stream;
  int envelopes = 0;
  for (int i = 0; i < 200; ++i) {
    switch (rng.UniformInt(0, 2)) {
      case 0: {
        AppendEnvelopeFrame(
            MakeEnvelope(rng.UniformInt(0, 100), kCoordinatorId,
                         ActorMsgKind::kPollResponse,
                         rng.UniformInt(0, 1 << 20),
                         rng.UniformInt(0, 1 << 30), false),
            &stream);
        ++envelopes;
        break;
      }
      case 1:
        AppendHelloFrame(HelloFrame{}, &stream);
        break;
      default:
        AppendHelloAckFrame(HelloAckFrame{}, &stream);
        break;
    }
  }
  FrameReader reader;
  int got_envelopes = 0;
  int got_total = 0;
  size_t off = 0;
  while (off < stream.size()) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 37));
    n = std::min(n, stream.size() - off);
    reader.Append(reinterpret_cast<const uint8_t*>(stream.data()) + off, n);
    off += n;
    for (;;) {
      WireFrame frame;
      auto r = reader.Next(&frame);
      ASSERT_TRUE(r.ok()) << r.status().message();
      if (!*r) {
        break;
      }
      ++got_total;
      if (frame.type == FrameType::kEnvelope) {
        ++got_envelopes;
      }
    }
  }
  EXPECT_EQ(got_total, 200);
  EXPECT_EQ(got_envelopes, envelopes);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ReaderRejectsOversizedLength) {
  // A corrupt length prefix must fail fast, not trigger a giant buffer.
  uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};
  FrameReader reader;
  reader.Append(prefix, sizeof(prefix));
  WireFrame frame;
  auto r = reader.Next(&frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("oversized"), std::string::npos);
}

TEST(WireTest, ReaderTakeBufferedReturnsUnconsumedTail) {
  // The handshake reader may pull data frames in with the hello-ack; the
  // tail must transfer losslessly to the steady-state reader.
  std::string stream;
  AppendHelloAckFrame(HelloAckFrame{}, &stream);
  Envelope e = MakeEnvelope(kCoordinatorId, 2, ActorMsgKind::kThresholdUpdate,
                            -1, 424242, false);
  AppendEnvelopeFrame(e, &stream);

  FrameReader handshake;
  handshake.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                   stream.size());
  WireFrame frame;
  auto r = handshake.Next(&frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  ASSERT_EQ(frame.type, FrameType::kHelloAck);

  std::string rest = handshake.TakeBuffered();
  EXPECT_EQ(handshake.buffered(), 0u);
  FrameReader steady;
  steady.Append(reinterpret_cast<const uint8_t*>(rest.data()), rest.size());
  r = steady.Next(&frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  ASSERT_EQ(frame.type, FrameType::kEnvelope);
  ExpectEnvelopeEq(e, frame.envelope);
}

TEST(WireTest, EnvelopeSequenceNumberRoundTrips) {
  Envelope e = MakeEnvelope(3, kCoordinatorId, ActorMsgKind::kAlarm, 12, 99,
                            true);
  std::string buf;
  AppendEnvelopeFrame(e, &buf, /*seq=*/0xdeadbeefcafe1234ULL);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ExpectEnvelopeEq(e, frame->envelope);
  EXPECT_EQ(frame->seq, 0xdeadbeefcafe1234ULL);
}

TEST(WireTest, HelloCarriesGenerationAndHighWater) {
  HelloFrame h;
  h.worker = 1;
  h.num_workers = 2;
  h.num_sites = 8;
  h.generation = 5;
  h.last_seq_received = 777;
  std::string buf;
  AppendHelloFrame(h, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello.generation, 5u);
  EXPECT_EQ(frame->hello.last_seq_received, 777u);

  HelloAckFrame a;
  a.ok = 1;
  a.generation = 5;
  a.last_seq_received = 123456789;
  std::string ack;
  AppendHelloAckFrame(a, &ack);
  frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(ack.data()) + 4, ack.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello_ack.generation, 5u);
  EXPECT_EQ(frame->hello_ack.last_seq_received, 123456789u);
}

TEST(WireTest, LayoutFrameRoundTripAndAck) {
  LayoutFrame l;
  l.version = 7;
  l.num_sites = 10;
  l.num_shards = 3;
  l.starts = {0, 4, 7, 10};
  std::string buf;
  AppendLayoutFrame(l, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kLayoutUpdate);
  EXPECT_EQ(frame->layout.version, 7u);
  EXPECT_EQ(frame->layout.num_sites, 10);
  EXPECT_EQ(frame->layout.num_shards, 3);
  EXPECT_EQ(frame->layout.starts, (std::vector<int32_t>{0, 4, 7, 10}));

  LayoutAckFrame a;
  a.version = 7;
  std::string ack;
  AppendLayoutAckFrame(a, &ack);
  frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(ack.data()) + 4, ack.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kLayoutAck);
  EXPECT_EQ(frame->layout_ack.version, 7u);
}

TEST(WireTest, LayoutFrameRejectsMalformedBoundaries) {
  // Non-ascending boundaries must fail decoding: a malicious or corrupt
  // layout would otherwise install broken routing on the worker.
  LayoutFrame l;
  l.version = 1;
  l.num_sites = 10;
  l.num_shards = 2;
  l.starts = {0, 7, 5};  // Descending tail.
  std::string buf;
  AppendLayoutFrame(l, &buf);
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(buf.data()) + 4,
                   buf.size() - 4)
                   .ok());
}

TEST(WireTest, FinishDistinguishesCleanEofFromTruncation) {
  std::string stream;
  AppendEnvelopeFrame(Envelope{}, &stream);

  // Clean EOF: every appended byte was consumed as a whole frame.
  FrameReader clean;
  clean.Append(reinterpret_cast<const uint8_t*>(stream.data()), stream.size());
  WireFrame frame;
  auto r = clean.Next(&frame);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(*r);
  EXPECT_TRUE(clean.Finish().ok());

  // EOF mid-frame at every split point: a distinct truncated-frame error,
  // not a silent partial read.
  for (size_t cut = 1; cut < stream.size(); ++cut) {
    FrameReader torn;
    torn.Append(reinterpret_cast<const uint8_t*>(stream.data()), cut);
    r = torn.Next(&frame);
    ASSERT_TRUE(r.ok()) << "cut=" << cut;
    ASSERT_FALSE(*r);
    Status fin = torn.Finish();
    ASSERT_FALSE(fin.ok()) << "cut=" << cut;
    EXPECT_NE(fin.message().find("truncated"), std::string::npos);
  }
}

TEST(WireTest, SocketStatsToString) {
  SocketStats s;
  s.frames_sent = 5;
  s.disconnects = 1;
  std::string text = s.ToString();
  EXPECT_NE(text.find("frames_tx=5"), std::string::npos);
  EXPECT_NE(text.find("disconnects=1"), std::string::npos);
}

TEST(WireTest, HelloHandshakeTimestampsRoundTrip) {
  HelloFrame h;
  h.worker = 1;
  h.t1_us = 1'234'567'890'123;
  std::string buf;
  AppendHelloFrame(h, &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello.t1_us, h.t1_us);

  HelloAckFrame a;
  a.ok = 1;
  a.t1_us = h.t1_us;        // Echo for the offset estimate.
  a.t2_us = h.t1_us + 150;  // Coordinator receive.
  a.t3_us = h.t1_us + 170;  // Coordinator send.
  buf.clear();
  AppendHelloAckFrame(a, &buf);
  frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->hello_ack.t1_us, a.t1_us);
  EXPECT_EQ(frame->hello_ack.t2_us, a.t2_us);
  EXPECT_EQ(frame->hello_ack.t3_us, a.t3_us);
}

TelemetryFrame MakeTelemetryFrame() {
  TelemetryFrame t;
  t.worker = 1;
  t.final_flush = 1;
  t.wall_time_us = 1'700'000'000'000'000;
  t.clock_offset_us = -250;
  t.metrics.counters["runtime/site/updates"] = 100000;
  t.metrics.counters["runtime/socket/frames_tx"] = 42;
  t.metrics.gauges["queue_depth"] = 3.5;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {3, 2, 1, 0};
  h.count = 6;
  h.sum = 9.5;
  h.min = 0.5;
  h.max = 3.0;
  t.metrics.histograms["lag"] = h;
  TelemetryTraceEvent ev;
  ev.kind = 1;
  ev.epoch = 77;
  ev.site = 3;
  ev.value = -9;
  ev.duration_us = 120;
  ev.ts_us = t.wall_time_us - 5;
  t.events.push_back(ev);
  return t;
}

TEST(WireTest, TelemetryRoundTrip) {
  TelemetryFrame t = MakeTelemetryFrame();
  std::string buf;
  ASSERT_TRUE(AppendTelemetryFrame(t, &buf).ok());
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kTelemetry);
  const TelemetryFrame& got = frame->telemetry;
  EXPECT_EQ(got.worker, 1);
  EXPECT_EQ(got.final_flush, 1);
  EXPECT_EQ(got.wall_time_us, t.wall_time_us);
  EXPECT_EQ(got.clock_offset_us, -250);
  EXPECT_EQ(got.metrics.counters.at("runtime/site/updates"), 100000);
  EXPECT_DOUBLE_EQ(got.metrics.gauges.at("queue_depth"), 3.5);
  const obs::HistogramSnapshot& lag = got.metrics.histograms.at("lag");
  ASSERT_EQ(lag.bounds.size(), 3u);
  ASSERT_EQ(lag.counts.size(), 4u);
  EXPECT_EQ(lag.count, 6);
  EXPECT_DOUBLE_EQ(lag.sum, 9.5);
  EXPECT_DOUBLE_EQ(lag.min, 0.5);
  EXPECT_DOUBLE_EQ(lag.max, 3.0);
  ASSERT_EQ(got.events.size(), 1u);
  EXPECT_EQ(got.events[0].epoch, 77);
  EXPECT_EQ(got.events[0].site, 3);
  EXPECT_EQ(got.events[0].value, -9);
  EXPECT_EQ(got.events[0].duration_us, 120);
  EXPECT_EQ(got.events[0].ts_us, t.wall_time_us - 5);
}

TEST(WireTest, ReaderAcceptsLargeTelemetryButNotLargeEnvelopes) {
  // Telemetry frames are the one type allowed past kMaxFramePayload: the
  // reader peeks the type byte before enforcing the size cap.
  TelemetryFrame t = MakeTelemetryFrame();
  for (int i = 0; i < 2000; ++i) {
    t.metrics.counters["c/" + std::to_string(i)] = i;
  }
  std::string buf;
  ASSERT_TRUE(AppendTelemetryFrame(t, &buf).ok());
  ASSERT_GT(buf.size(), kMaxFramePayload);

  FrameReader reader;
  reader.Append(reinterpret_cast<const uint8_t*>(buf.data()), buf.size());
  WireFrame frame;
  auto r = reader.Next(&frame);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(*r);
  EXPECT_EQ(frame.type, FrameType::kTelemetry);
  EXPECT_EQ(frame.telemetry.metrics.counters.size(),
            t.metrics.counters.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, TelemetryRejectsOversizedPayload) {
  // Past kMaxTelemetryPayload the append itself refuses — callers trim the
  // event batch rather than shipping unbounded frames.
  TelemetryFrame t;
  const std::string big(2048, 'x');
  for (int i = 0; i < 600; ++i) {
    t.metrics.counters[big + std::to_string(i)] = i;
  }
  std::string buf;
  Status st = AppendTelemetryFrame(t, &buf);
  ASSERT_FALSE(st.ok());
}

TEST(WireTest, TelemetryRejectsMalformedHistogramShape) {
  // counts must be exactly bounds.size() + 1; a mismatched snapshot is a
  // programming error upstream and must not serialize.
  TelemetryFrame t;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {1, 2};  // Missing the overflow bucket.
  h.count = 3;
  t.metrics.histograms["bad"] = h;
  std::string buf;
  EXPECT_FALSE(AppendTelemetryFrame(t, &buf).ok());
}

TEST(WireTest, TelemetryTruncationsNeverDecodeGarbage) {
  TelemetryFrame t = MakeTelemetryFrame();
  std::string buf;
  ASSERT_TRUE(AppendTelemetryFrame(t, &buf).ok());
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(buf.data()) + 4;
  for (size_t len = 0; len < buf.size() - 4; ++len) {
    EXPECT_FALSE(DecodeFramePayload(payload, len).ok()) << "len=" << len;
  }
}

// kEnvelopeBatch (wire v4): K routed envelopes under one length prefix and
// one sequence number — the coalesced per-epoch update frame the writer
// emits when its send queue bursts.

TEST(WireTest, EnvelopeBatchRoundTrip) {
  std::vector<Envelope> sent;
  for (int i = 0; i < 37; ++i) {
    sent.push_back(MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kEpochReport,
                                2000 + i, i * 11 - 5, i % 2 == 0));
  }
  std::string buf;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &buf, /*seq=*/99);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kEnvelopeBatch);
  EXPECT_EQ(frame->seq, 99u);
  ASSERT_EQ(frame->batch.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectEnvelopeEq(sent[i], frame->batch[i]);
  }
}

TEST(WireTest, EnvelopeBatchSingletonMatchesLooseEnvelope) {
  Envelope e = MakeEnvelope(4, kCoordinatorId, ActorMsgKind::kAlarm, 17, 23,
                            true);
  std::string buf;
  AppendEnvelopeBatchFrame(&e, 1, &buf, /*seq=*/7);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame->type, FrameType::kEnvelopeBatch);
  ASSERT_EQ(frame->batch.size(), 1u);
  ExpectEnvelopeEq(e, frame->batch[0]);
}

TEST(WireTest, EnvelopeBatchMaxSizeRoundTripsThroughReader) {
  // The largest legal batch must survive the FrameReader's oversized-frame
  // peek (it is bigger than a loose envelope but under kMaxBatchPayload).
  std::vector<Envelope> sent;
  for (uint32_t i = 0; i < kMaxBatchEnvelopes; ++i) {
    sent.push_back(MakeEnvelope(static_cast<int32_t>(i), kCoordinatorId,
                                ActorMsgKind::kEpochReport, i, i * 3, false));
  }
  std::string stream;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &stream, /*seq=*/1);
  FrameReader reader;
  reader.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                stream.size());
  WireFrame frame;
  auto produced = reader.Next(&frame);
  ASSERT_TRUE(produced.ok()) << produced.status().message();
  ASSERT_TRUE(*produced);
  ASSERT_EQ(frame.type, FrameType::kEnvelopeBatch);
  ASSERT_EQ(frame.batch.size(), sent.size());
  ExpectEnvelopeEq(sent.back(), frame.batch.back());
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(WireTest, EnvelopeBatchTruncationsNeverDecodeGarbage) {
  std::vector<Envelope> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(MakeEnvelope(i, kCoordinatorId, ActorMsgKind::kAlarm,
                                i, i, false));
  }
  std::string buf;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &buf, /*seq=*/3);
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(buf.data()) + 4;
  for (size_t len = 0; len < buf.size() - 4; ++len) {
    EXPECT_FALSE(DecodeFramePayload(payload, len).ok()) << "len=" << len;
  }
  // Trailing bytes are corruption too.
  std::string padded = buf + std::string(1, '\0');
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(padded.data()) + 4,
                   padded.size() - 4)
                   .ok());
}

TEST(WireTest, EnvelopeBatchRejectsLyingCount) {
  // A count field claiming more envelopes than the body carries must fail
  // loudly instead of reading past the payload.
  Envelope e = MakeEnvelope(1, kCoordinatorId, ActorMsgKind::kAlarm, 1, 1,
                            false);
  std::string buf;
  AppendEnvelopeBatchFrame(&e, 1, &buf, /*seq=*/5);
  // Count lives right after the 3-byte header (version, magic, type) in the
  // payload; bump it from 1 to 2.
  buf[4 + 3] = 2;
  EXPECT_FALSE(DecodeFramePayload(
                   reinterpret_cast<const uint8_t*>(buf.data()) + 4,
                   buf.size() - 4)
                   .ok());
}

TEST(WireTest, PingStaysProcessLocal) {
  std::string buf;
  AppendEnvelopeFrame(MakeEnvelope(kCoordinatorId, kCoordinatorId,
                                   ActorMsgKind::kPing, 1, 0, false),
                      &buf);
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("message kind"), std::string::npos);
}

TEST(WireTest, VersionFourPeerIsRefusedAtHello) {
  std::string buf;
  AppendHelloFrame(HelloFrame{}, &buf);
  buf[4] = 4;  // A v4 worker's version byte.
  auto frame = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(buf.data()) + 4, buf.size() - 4);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("got 4, want 5"), std::string::npos)
      << frame.status().message();
}

// Worker 1 of 2 over 7 sites owns sites 1, 3 and 5.
constexpr WireEndpoint kWorkerOne{7, 2, 1};

TEST(WireTest, BarrierKindsRoundTripThroughAWorkerDecoder) {
  const std::vector<Envelope> sent = {
      MakeEnvelope(kCoordinatorId, 5, ActorMsgKind::kSiteDown, 3, 0, false),
      MakeEnvelope(kCoordinatorId, 1, ActorMsgKind::kEpochStart, 3, 7, false),
      MakeEnvelope(kCoordinatorId, 3, ActorMsgKind::kPollRange, 3, 6, false),
      MakeEnvelope(kCoordinatorId, 5, ActorMsgKind::kEpochStart, 4, 6, false),
  };
  std::string stream;
  AppendEnvelopeBatchFrame(sent.data(), sent.size(), &stream, /*seq=*/9);
  AppendEnvelopeFrame(sent[1], &stream, /*seq=*/10);
  FrameReader reader(kWorkerOne);
  reader.Append(reinterpret_cast<const uint8_t*>(stream.data()),
                stream.size());
  WireFrame frame;
  auto r = reader.Next(&frame);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(*r);
  ASSERT_EQ(frame.batch.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectEnvelopeEq(sent[i], frame.batch[i]);
  }
  r = reader.Next(&frame);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(*r);
  ExpectEnvelopeEq(sent[1], frame.envelope);

  // The coordinator-bound done marker decodes on the coordinator side.
  std::string done;
  AppendEnvelopeFrame(
      MakeEnvelope(3, kCoordinatorId, ActorMsgKind::kEpochDone, 3, 7, false),
      &done);
  auto d = DecodeFramePayload(
      reinterpret_cast<const uint8_t*>(done.data()) + 4, done.size() - 4);
  ASSERT_TRUE(d.ok()) << d.status().message();
  EXPECT_EQ(d->envelope.msg.kind, ActorMsgKind::kEpochDone);
}

TEST(WireTest, WorkerDecoderRejectsRangesItCannotExecute) {
  struct Case {
    int to;
    int64_t end;
    const char* why;
  };
  const Case cases[] = {
      {2, 7, "does not start at a site of worker 1"},  // Worker 0's site.
      {-1, 7, "does not start at a site of worker 1"},
      {9, 11, "does not start at a site of worker 1"},  // Past the fabric.
      {3, 3, "has an end outside (3, 7]"},
      {3, 1, "has an end outside (3, 7]"},
      {3, 8, "has an end outside (3, 7]"},
      {3, INT64_MAX, "has an end outside (3, 7]"},
  };
  for (ActorMsgKind kind :
       {ActorMsgKind::kEpochStart, ActorMsgKind::kPollRange}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "to=" << c.to << " end=" << c.end);
      const Envelope e = MakeEnvelope(kCoordinatorId, c.to, kind, 0, c.end,
                                      false);
      std::string single;
      AppendEnvelopeFrame(e, &single);
      auto frame = DecodeFramePayload(
          reinterpret_cast<const uint8_t*>(single.data()) + 4,
          single.size() - 4, kWorkerOne);
      ASSERT_FALSE(frame.ok());
      EXPECT_NE(frame.status().message().find(c.why), std::string::npos)
          << frame.status().message();

      // Inside a batch the whole frame is refused, through the reader too.
      const Envelope ok =
          MakeEnvelope(kCoordinatorId, 1, ActorMsgKind::kEpochStart, 0, 7,
                       false);
      const Envelope pair[] = {ok, e};
      std::string batch;
      AppendEnvelopeBatchFrame(pair, 2, &batch);
      FrameReader reader(kWorkerOne);
      reader.Append(reinterpret_cast<const uint8_t*>(batch.data()),
                    batch.size());
      WireFrame out;
      auto r = reader.Next(&out);
      ASSERT_FALSE(r.ok());
      EXPECT_NE(r.status().message().find("in envelope batch"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace dcv
