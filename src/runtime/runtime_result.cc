#include "runtime/runtime_result.h"

#include "obs/json_writer.h"

namespace dcv {

std::string RuntimeResult::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("protocol").Value(protocol);
  w.Key("mode").Value(mode);
  w.Key("epochs").Value(epochs);
  w.Key("messages").BeginObject();
  for (int m = 0; m < kNumMessageTypes; ++m) {
    MessageType type = static_cast<MessageType>(m);
    w.Key(MessageTypeName(type)).Value(messages.of(type));
  }
  w.Key("total").Value(messages.total());
  w.EndObject();
  w.Key("detection").BeginObject();
  w.Key("alarm_epochs").Value(alarm_epochs);
  w.Key("total_alarms").Value(total_alarms);
  w.Key("polled_epochs").Value(polled_epochs);
  w.Key("true_violations").Value(true_violations);
  w.Key("detected_violations").Value(detected_violations);
  w.Key("missed_violations").Value(missed_violations);
  w.Key("false_alarm_epochs").Value(false_alarm_epochs);
  w.Key("violations_flagged").Value(violations_flagged);
  w.EndObject();
  w.Key("recovery").BeginObject();
  w.Key("shard_recoveries").Value(shard_recoveries);
  w.Key("reshards").Value(reshards);
  w.Key("recovery_ms").Value(recovery_ms);
  w.EndObject();
  w.Key("reliability").Raw(reliability.ToJson());
  w.Key("throughput").BeginObject();
  w.Key("total_updates").Value(total_updates);
  w.Key("elapsed_seconds").Value(elapsed_seconds);
  w.Key("updates_per_second").Value(updates_per_second);
  w.Key("site_updates").BeginArray();
  for (int64_t u : site_updates) {
    w.Value(u);
  }
  w.EndArray();
  w.EndObject();
  w.Key("socket").BeginObject();
  w.Key("frames_sent").Value(socket.frames_sent);
  w.Key("frames_received").Value(socket.frames_received);
  w.Key("envelopes_sent").Value(socket.envelopes_sent);
  w.Key("envelopes_received").Value(socket.envelopes_received);
  w.Key("bytes_sent").Value(socket.bytes_sent);
  w.Key("bytes_received").Value(socket.bytes_received);
  w.Key("connect_attempts").Value(socket.connect_attempts);
  w.Key("connect_retries").Value(socket.connect_retries);
  w.Key("accept_timeouts").Value(socket.accept_timeouts);
  w.Key("decode_errors").Value(socket.decode_errors);
  w.Key("disconnects").Value(socket.disconnects);
  w.Key("truncated_frames").Value(socket.truncated_frames);
  w.Key("reconnects").Value(socket.reconnects);
  w.Key("replayed_frames").Value(socket.replayed_frames);
  w.Key("duplicate_frames").Value(socket.duplicate_frames);
  w.EndObject();
  if (!metrics.empty()) {
    w.Key("metrics").Raw(metrics.ToJson());
  }
  w.EndObject();
  return w.str();
}

}  // namespace dcv
