#include "sim/channel.h"

#include <algorithm>

#include "obs/json_writer.h"

namespace dcv {

bool FaultSpec::any_faults() const {
  if (loss > 0.0 || duplicate > 0.0 || delay > 0.0) {
    return true;
  }
  for (double p : per_site_loss) {
    if (p > 0.0) {
      return true;
    }
  }
  return !crashes.empty() || !partitions.empty();
}

Status FaultSpec::Validate(int num_sites) const {
  auto is_prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!is_prob(loss) || !is_prob(duplicate) || !is_prob(delay)) {
    return InvalidArgumentError(
        "fault probabilities must be in [0, 1]");
  }
  if (max_delay_epochs < 1) {
    return InvalidArgumentError("max_delay_epochs must be >= 1");
  }
  if (!per_site_loss.empty() &&
      static_cast<int>(per_site_loss.size()) != num_sites) {
    return InvalidArgumentError(
        "per_site_loss must be empty or one probability per site");
  }
  for (double p : per_site_loss) {
    if (!is_prob(p)) {
      return InvalidArgumentError("per_site_loss entries must be in [0, 1]");
    }
  }
  for (const CrashWindow& c : crashes) {
    if (c.site < 0 || c.site >= num_sites) {
      return InvalidArgumentError("crash window names a site out of range");
    }
    if (c.from >= c.to) {
      return InvalidArgumentError("crash window must satisfy from < to");
    }
  }
  for (const EpochWindow& w : partitions) {
    if (w.from >= w.to) {
      return InvalidArgumentError("partition window must satisfy from < to");
    }
  }
  if (retry.max_attempts < 1) {
    return InvalidArgumentError("retry.max_attempts must be >= 1");
  }
  if (retry.backoff_base_ticks < 0) {
    return InvalidArgumentError("retry.backoff_base_ticks must be >= 0");
  }
  return OkStatus();
}

std::string ChannelStats::ToString() const {
  std::string out;
  auto add = [&](const char* key, int64_t v) {
    if (v == 0) {
      return;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += std::string(key) + "=" + std::to_string(v);
  };
  add("transmissions", transmissions);
  add("delivered", delivered);
  add("dropped", dropped);
  add("blackholed", blackholed);
  add("duplicates", duplicates);
  add("delayed", delayed);
  add("late_deliveries", late_deliveries);
  add("delivery_delay_epochs", delivery_delay_epochs);
  add("retransmissions", retransmissions);
  add("backoff_ticks", backoff_ticks);
  add("acks", acks);
  add("give_ups", give_ups);
  add("crashed_sends", crashed_sends);
  add("timed_out_polls", timed_out_polls);
  add("degraded_decisions", degraded_decisions);
  add("resyncs", resyncs);
  return out.empty() ? "none" : out;
}

std::string ChannelStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("transmissions").Value(transmissions);
  w.Key("delivered").Value(delivered);
  w.Key("dropped").Value(dropped);
  w.Key("blackholed").Value(blackholed);
  w.Key("duplicates").Value(duplicates);
  w.Key("delayed").Value(delayed);
  w.Key("late_deliveries").Value(late_deliveries);
  w.Key("delivery_delay_epochs").Value(delivery_delay_epochs);
  w.Key("retransmissions").Value(retransmissions);
  w.Key("backoff_ticks").Value(backoff_ticks);
  w.Key("acks").Value(acks);
  w.Key("give_ups").Value(give_ups);
  w.Key("crashed_sends").Value(crashed_sends);
  w.Key("timed_out_polls").Value(timed_out_polls);
  w.Key("degraded_decisions").Value(degraded_decisions);
  w.Key("resyncs").Value(resyncs);
  w.EndObject();
  return w.str();
}

ChannelStats operator-(const ChannelStats& a, const ChannelStats& b) {
  ChannelStats d;
  d.transmissions = a.transmissions - b.transmissions;
  d.delivered = a.delivered - b.delivered;
  d.dropped = a.dropped - b.dropped;
  d.blackholed = a.blackholed - b.blackholed;
  d.duplicates = a.duplicates - b.duplicates;
  d.delayed = a.delayed - b.delayed;
  d.late_deliveries = a.late_deliveries - b.late_deliveries;
  d.delivery_delay_epochs = a.delivery_delay_epochs - b.delivery_delay_epochs;
  d.retransmissions = a.retransmissions - b.retransmissions;
  d.backoff_ticks = a.backoff_ticks - b.backoff_ticks;
  d.acks = a.acks - b.acks;
  d.give_ups = a.give_ups - b.give_ups;
  d.crashed_sends = a.crashed_sends - b.crashed_sends;
  d.timed_out_polls = a.timed_out_polls - b.timed_out_polls;
  d.degraded_decisions = a.degraded_decisions - b.degraded_decisions;
  d.resyncs = a.resyncs - b.resyncs;
  return d;
}

ChannelStats operator+(const ChannelStats& a, const ChannelStats& b) {
  ChannelStats s;
  s.transmissions = a.transmissions + b.transmissions;
  s.delivered = a.delivered + b.delivered;
  s.dropped = a.dropped + b.dropped;
  s.blackholed = a.blackholed + b.blackholed;
  s.duplicates = a.duplicates + b.duplicates;
  s.delayed = a.delayed + b.delayed;
  s.late_deliveries = a.late_deliveries + b.late_deliveries;
  s.delivery_delay_epochs = a.delivery_delay_epochs + b.delivery_delay_epochs;
  s.retransmissions = a.retransmissions + b.retransmissions;
  s.backoff_ticks = a.backoff_ticks + b.backoff_ticks;
  s.acks = a.acks + b.acks;
  s.give_ups = a.give_ups + b.give_ups;
  s.crashed_sends = a.crashed_sends + b.crashed_sends;
  s.timed_out_polls = a.timed_out_polls + b.timed_out_polls;
  s.degraded_decisions = a.degraded_decisions + b.degraded_decisions;
  s.resyncs = a.resyncs + b.resyncs;
  return s;
}

Channel::Channel(FaultSpec spec)
    : spec_(std::move(spec)),
      perfect_(!spec_.any_faults()),
      rng_(spec_.seed) {}

Status Channel::Init(int num_sites, MessageCounter* counter) {
  if (num_sites < 0) {
    return InvalidArgumentError("num_sites must be >= 0");
  }
  if (counter == nullptr) {
    return InvalidArgumentError("Channel requires a MessageCounter");
  }
  DCV_RETURN_IF_ERROR(spec_.Validate(num_sites));
  num_sites_ = num_sites;
  counter_ = counter;
  epoch_ = 0;
  partitioned_ = false;
  up_.assign(static_cast<size_t>(num_sites), 1);
  newly_recovered_.clear();
  pending_.clear();
  arrivals_.clear();
  last_known_.assign(static_cast<size_t>(num_sites), 0);
  has_last_known_.assign(static_cast<size_t>(num_sites), 0);
  stats_ = ChannelStats{};
  // Apply windows covering epoch 0 so sites configured to start crashed do.
  BeginEpoch(0);
  return OkStatus();
}

void Channel::SetObserver(obs::MetricsRegistry* metrics,
                          obs::TraceRecorder* recorder) {
  metrics_ = metrics;
  recorder_ = recorder;
  msg_counters_.fill(nullptr);
  if (metrics_ != nullptr) {
    for (int m = 0; m < kNumMessageTypes; ++m) {
      msg_counters_[static_cast<size_t>(m)] = metrics_->counter(
          "channel/msg/" +
          std::string(MessageTypeName(static_cast<MessageType>(m))));
    }
  }
}

void Channel::BeginEpoch(int64_t epoch) {
  epoch_ = epoch;
  newly_recovered_.clear();
  if (perfect_) {
    return;
  }
  for (int i = 0; i < num_sites_; ++i) {
    bool down = false;
    for (const CrashWindow& c : spec_.crashes) {
      if (c.site == i && epoch >= c.from && epoch < c.to) {
        down = true;
        break;
      }
    }
    size_t si = static_cast<size_t>(i);
    if (up_[si] == 0 && !down) {
      newly_recovered_.push_back(i);
      DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kRecovery, epoch, i);
    } else if (up_[si] != 0 && down) {
      DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kCrash, epoch, i);
    }
    up_[si] = down ? 0 : 1;
  }
  partitioned_ = false;
  for (const EpochWindow& w : spec_.partitions) {
    if (epoch >= w.from && epoch < w.to) {
      partitioned_ = true;
      break;
    }
  }
  // Deliver due delayed messages into the arrival queue (coordinator
  // inbox); site-bound deliveries are applied by the sender on kDelayed,
  // so here they only need the lateness accounting.
  for (size_t p = 0; p < pending_.size();) {
    if (pending_[p].deliver_epoch > epoch) {
      ++p;
      continue;
    }
    const Pending& m = pending_[p];
    if (m.to_coordinator) {
      if (partitioned_) {
        ++stats_.blackholed;
      } else {
        ++stats_.late_deliveries;
        stats_.delivery_delay_epochs += epoch - m.sent_epoch;
        arrivals_.push_back(Arrival{m.type, m.site, m.payload, m.sent_epoch});
      }
    } else {
      if (SiteUp(m.site)) {
        ++stats_.late_deliveries;
        stats_.delivery_delay_epochs += epoch - m.sent_epoch;
      } else {
        ++stats_.blackholed;
      }
    }
    pending_[p] = pending_.back();
    pending_.pop_back();
  }
}

std::vector<Channel::Arrival> Channel::TakeArrivals(MessageType type) {
  std::vector<Arrival> out;
  for (size_t i = 0; i < arrivals_.size();) {
    if (arrivals_[i].type == type) {
      out.push_back(arrivals_[i]);
      arrivals_[i] = arrivals_.back();
      arrivals_.pop_back();
    } else {
      ++i;
    }
  }
  // Swap-removal scrambles order; restore send order for determinism.
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.sent_epoch != b.sent_epoch ? a.sent_epoch < b.sent_epoch
                                        : a.site < b.site;
  });
  return out;
}

double Channel::LossFor(int site) const {
  if (!spec_.per_site_loss.empty()) {
    return spec_.per_site_loss[static_cast<size_t>(site)];
  }
  return spec_.loss;
}

bool Channel::Lose(int site) {
  double p = LossFor(site);
  if (p <= 0.0) {
    return false;
  }
  return rng_.Bernoulli(p);
}

SendStatus Channel::TransmitOnce(int site, MessageType type, int64_t payload,
                                 bool to_coordinator, bool receiver_up,
                                 bool allow_delay) {
  Charge(type);
  ++stats_.transmissions;
  if (partitioned_ || !receiver_up) {
    ++stats_.blackholed;
    return SendStatus::kLost;
  }
  if (Lose(site)) {
    ++stats_.dropped;
    return SendStatus::kLost;
  }
  if (allow_delay && spec_.delay > 0.0 && rng_.Bernoulli(spec_.delay)) {
    ++stats_.delayed;
    int64_t d = rng_.UniformInt(1, spec_.max_delay_epochs);
    pending_.push_back(
        Pending{type, site, payload, epoch_, epoch_ + d, to_coordinator});
    return SendStatus::kDelayed;
  }
  ++stats_.delivered;
  if (spec_.duplicate > 0.0 && rng_.Bernoulli(spec_.duplicate)) {
    Charge(type);
    ++stats_.transmissions;
    ++stats_.duplicates;
  }
  return SendStatus::kDelivered;
}

SendStatus Channel::SendOneWay(int site, MessageType type, bool reliable,
                               int64_t payload, bool to_coordinator) {
  if (perfect_) {
    Charge(type);
    ++stats_.transmissions;
    ++stats_.delivered;
    return SendStatus::kDelivered;
  }
  const bool sender_up = to_coordinator ? SiteUp(site) : true;
  const bool receiver_up = to_coordinator ? true : SiteUp(site);
  if (!sender_up) {
    ++stats_.crashed_sends;
    return SendStatus::kSenderDown;
  }
  if (!reliable || !spec_.retry.enable_acks) {
    return TransmitOnce(site, type, payload, to_coordinator, receiver_up,
                        /*allow_delay=*/true);
  }

  // Reliable: bounded retransmission with exponential backoff until an ack
  // comes back. A delayed data copy is enqueued at most once; further
  // timely deliveries after the first count as duplicates.
  bool got_through = false;
  bool delayed_copy = false;
  for (int attempt = 1; attempt <= spec_.retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++stats_.retransmissions;
      stats_.backoff_ticks +=
          static_cast<int64_t>(spec_.retry.backoff_base_ticks)
          << (attempt - 2);
      DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kRetransmission, epoch_,
                    site, attempt);
    }
    SendStatus fate =
        TransmitOnce(site, type, payload, to_coordinator, receiver_up,
                     /*allow_delay=*/!got_through && !delayed_copy);
    if (fate == SendStatus::kLost) {
      continue;
    }
    if (fate == SendStatus::kDelayed) {
      delayed_copy = true;  // Will arrive, but no timely ack: keep trying.
      continue;
    }
    if (got_through) {
      // The receiver already had it; this arrival is a duplicate.
      --stats_.delivered;
      ++stats_.duplicates;
    }
    got_through = true;
    // The ack travels the reverse direction over the same lossy link.
    Charge(MessageType::kAck);
    ++stats_.transmissions;
    ++stats_.acks;
    if (!Lose(site)) {
      return SendStatus::kDelivered;
    }
    ++stats_.dropped;  // Lost ack: the sender retransmits.
  }
  ++stats_.give_ups;
  DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kGiveUp, epoch_, site);
  if (got_through) {
    return SendStatus::kDelivered;
  }
  return delayed_copy ? SendStatus::kDelayed : SendStatus::kLost;
}

SendStatus Channel::SendFromSite(int site, MessageType type, bool reliable,
                                 int64_t payload) {
  return SendOneWay(site, type, reliable, payload, /*to_coordinator=*/true);
}

SendStatus Channel::SendToSite(int site, MessageType type, bool reliable,
                               int64_t payload) {
  return SendOneWay(site, type, reliable, payload, /*to_coordinator=*/false);
}

void Channel::RecordLastKnown(int site, int64_t value) {
  last_known_[static_cast<size_t>(site)] = value;
  has_last_known_[static_cast<size_t>(site)] = 1;
}

PollOutcome Channel::PollSites(const std::vector<int64_t>& true_values,
                               std::span<const int64_t> weights,
                               std::span<const int64_t> pessimistic) {
  DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kPollStart, epoch_);
  obs::ScopedTimer poll_timer(
      metrics_ != nullptr ? metrics_->histogram("channel/poll_us") : nullptr);
  PollOutcome out;
  out.values.assign(static_cast<size_t>(num_sites_), 0);
  auto weight = [&](int i) {
    return weights.empty() ? int64_t{1} : weights[static_cast<size_t>(i)];
  };

  if (perfect_) {
    Charge(MessageType::kPollRequest, num_sites_);
    Charge(MessageType::kPollResponse, num_sites_);
    stats_.transmissions += 2 * num_sites_;
    stats_.delivered += 2 * num_sites_;
    for (int i = 0; i < num_sites_; ++i) {
      size_t si = static_cast<size_t>(i);
      out.values[si] = true_values[si];
      RecordLastKnown(i, true_values[si]);
      out.weighted_sum += weight(i) * true_values[si];
    }
    out.responses = num_sites_;
    DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kPollEnd, epoch_,
                  obs::TraceRecorder::kCoordinator, out.responses,
                  poll_timer.ElapsedUs());
    return out;
  }

  const int attempts =
      spec_.retry.enable_acks ? spec_.retry.max_attempts : 1;
  for (int i = 0; i < num_sites_; ++i) {
    size_t si = static_cast<size_t>(i);
    bool answered = false;
    for (int attempt = 1; attempt <= attempts && !answered; ++attempt) {
      if (attempt > 1) {
        ++stats_.retransmissions;
        stats_.backoff_ticks +=
            static_cast<int64_t>(spec_.retry.backoff_base_ticks)
            << (attempt - 2);
        DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kRetransmission, epoch_,
                      i, attempt);
      }
      // Request leg. A delayed request misses the epoch deadline, so delay
      // counts as a timeout for the round trip.
      Charge(MessageType::kPollRequest);
      ++stats_.transmissions;
      if (partitioned_ || !SiteUp(i)) {
        ++stats_.blackholed;
        continue;
      }
      if (Lose(i) || (spec_.delay > 0.0 && rng_.Bernoulli(spec_.delay))) {
        ++stats_.dropped;
        continue;
      }
      // Response leg.
      Charge(MessageType::kPollResponse);
      ++stats_.transmissions;
      if (Lose(i) || (spec_.delay > 0.0 && rng_.Bernoulli(spec_.delay))) {
        ++stats_.dropped;
        continue;
      }
      stats_.delivered += 2;
      answered = true;
    }
    if (answered) {
      out.values[si] = true_values[si];
      RecordLastKnown(i, true_values[si]);
      ++out.responses;
    } else {
      ++out.timeouts;
      ++stats_.timed_out_polls;
      DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kDegraded, epoch_, i);
      int64_t fallback =
          si < pessimistic.size() ? pessimistic[si] : int64_t{0};
      if (spec_.degrade == DegradeMode::kLastKnown && has_last_known_[si]) {
        out.values[si] = last_known_[si];
      } else {
        out.values[si] = fallback;
      }
    }
    out.weighted_sum += weight(i) * out.values[si];
  }
  if (out.timeouts > 0) {
    out.degraded = true;
    ++stats_.degraded_decisions;
  }
  DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kPollEnd, epoch_,
                obs::TraceRecorder::kCoordinator, out.responses,
                poll_timer.ElapsedUs());
  return out;
}

}  // namespace dcv
