#ifndef DCV_SIM_CHANNEL_H_
#define DCV_SIM_CHANNEL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "sim/message.h"

namespace dcv {

/// Half-open epoch interval [from, to).
struct EpochWindow {
  int64_t from = 0;
  int64_t to = 0;
};

/// Site `site` is down during [from, to): it neither sends nor receives,
/// and any message addressed to it is black-holed.
struct CrashWindow {
  int site = 0;
  int64_t from = 0;
  int64_t to = 0;
};

/// What the coordinator substitutes for a site that fails to answer a poll
/// within the epoch deadline (crashed, partitioned, or all retries lost).
enum class DegradeMode {
  /// Use the site's last successfully reported value; fall back to the
  /// scheme's pessimistic value (then 0) when it has never reported.
  kLastKnown,
  /// Use the scheme's pessimistic per-site value (local threshold assumed
  /// breached / domain maximum): over-report rather than miss.
  kAssumeBreach,
};

/// Ack + bounded-retransmission policy for reliable sends. Retries happen
/// within the sending epoch (epochs are minutes; retransmission rounds are
/// sub-epoch), spaced by exponential backoff whose cumulative wait is
/// recorded in ChannelStats::backoff_ticks.
struct RetryPolicy {
  /// Off (the default): reliable sends degrade to single unacknowledged
  /// transmissions and no kAck messages exist — message counts stay
  /// bit-identical to the pre-channel protocol.
  bool enable_acks = false;

  /// Total transmissions per reliable send (first attempt + retries).
  int max_attempts = 4;

  /// First retry waits this many sub-epoch ticks; each further retry
  /// doubles the wait.
  int backoff_base_ticks = 1;
};

/// Deterministic fault configuration for one simulation run. The default
/// spec is the perfect network: nothing is ever lost, duplicated, delayed,
/// or crashed, and no acks are sent.
struct FaultSpec {
  /// Per-transmission loss probability on every site<->coordinator link.
  double loss = 0.0;

  /// Probability a delivered transmission is duplicated (the duplicate is
  /// charged as one extra message; receivers deduplicate).
  double duplicate = 0.0;

  /// Probability a surviving one-way message is delayed by whole epochs
  /// (uniform in [1, max_delay_epochs]) instead of arriving in-epoch.
  double delay = 0.0;
  int max_delay_epochs = 3;

  /// Optional per-site loss override (size num_sites); empty = uniform.
  std::vector<double> per_site_loss;

  /// Site crash/recovery schedule.
  std::vector<CrashWindow> crashes;

  /// Windows during which the coordinator is partitioned from every site:
  /// all site<->coordinator traffic is lost.
  std::vector<EpochWindow> partitions;

  RetryPolicy retry;
  DegradeMode degrade = DegradeMode::kLastKnown;

  /// Seed for the channel's private Rng: same spec + seed => bit-identical
  /// fault pattern and SimResult.
  uint64_t seed = 0x5eedULL;

  /// True when any fault can ever fire (acks alone do not count).
  bool any_faults() const;

  Status Validate(int num_sites) const;
};

/// Reliability accounting, reported per run (and per segment) alongside the
/// MessageCounter. `transmissions` counts wire messages including
/// retransmissions, duplicates, and acks; the MessageCounter sees the same
/// charges broken down by type.
struct ChannelStats {
  int64_t transmissions = 0;      ///< Wire messages actually sent.
  int64_t delivered = 0;          ///< Arrived in the sending epoch.
  int64_t dropped = 0;            ///< Lost to link loss.
  int64_t blackholed = 0;         ///< Lost to a crashed site / partition.
  int64_t duplicates = 0;         ///< Extra deliveries of the same message.
  int64_t delayed = 0;            ///< Deferred to a later epoch.
  int64_t late_deliveries = 0;    ///< Delayed messages that arrived.
  int64_t delivery_delay_epochs = 0;  ///< Sum of (arrival - send) epochs.
  int64_t retransmissions = 0;    ///< Reliable-send retries.
  int64_t backoff_ticks = 0;      ///< Cumulative exponential-backoff waits.
  int64_t acks = 0;               ///< kAck messages sent.
  int64_t give_ups = 0;           ///< Reliable sends that exhausted retries.
  int64_t crashed_sends = 0;      ///< Sends suppressed: sender was down.
  int64_t timed_out_polls = 0;    ///< Per-site poll round-trips that timed out.
  int64_t degraded_decisions = 0; ///< Polls resolved with substituted values.
  int64_t resyncs = 0;            ///< State re-syncs after site recovery.

  std::string ToString() const;

  /// JSON object with every field (zeros included) in declaration order,
  /// e.g. {"transmissions":12,...,"resyncs":0} — merged into the unified
  /// metrics export (SimResult::ToJson) so reliability counters live next
  /// to the message and detection counters instead of in a parallel struct.
  std::string ToJson() const;
};

/// Field-wise difference, for per-segment reporting.
ChannelStats operator-(const ChannelStats& a, const ChannelStats& b);

/// Field-wise sum, for merging per-shard channel stats into a run total.
ChannelStats operator+(const ChannelStats& a, const ChannelStats& b);

/// Outcome of one one-way send as observed by the *sender*.
enum class SendStatus {
  kDelivered,   ///< Arrived this epoch (reliable: ack'd or known delivered).
  kDelayed,     ///< Will arrive in a later epoch.
  kLost,        ///< Dropped; reliable sends exhausted every retry.
  kSenderDown,  ///< Sender is crashed; nothing was transmitted.
};

/// Outcome of a coordinator poll round over all sites.
struct PollOutcome {
  /// Per-site resolved values: the true value for responders, the
  /// DegradeMode substitute for sites that timed out.
  std::vector<int64_t> values;
  int64_t weighted_sum = 0;  ///< Weighted sum of `values`.
  int responses = 0;         ///< Sites that answered before the deadline.
  int timeouts = 0;          ///< Sites resolved by substitution.
  bool degraded = false;     ///< timeouts > 0.
};

/// The transport between sites and the coordinator. Every protocol message
/// of every detection scheme is routed through a Channel, which charges the
/// run's MessageCounter for each wire transmission and injects faults
/// according to its FaultSpec. A default-constructed Channel is the perfect
/// network and reproduces the pre-channel message counts bit for bit.
///
/// All randomness comes from a private Rng seeded by FaultSpec::seed, so a
/// run is a pure function of (trace, scheme, spec): identical seeds give
/// identical SimResults including retransmission counts.
class Channel {
 public:
  explicit Channel(FaultSpec spec = FaultSpec());

  /// Validates the spec and binds the counter every transmission charges.
  Status Init(int num_sites, MessageCounter* counter);

  /// Attaches observability sinks (either may be null). The channel then
  /// records crash/recovery, retransmission, give-up, poll and degradation
  /// trace events and mirrors wire traffic into `metrics` counters
  /// ("channel/msg/<type>"). Detached (the default) the instrumentation is
  /// a null-pointer branch per event — the perfect-channel fast path stays
  /// allocation-free.
  void SetObserver(obs::MetricsRegistry* metrics, obs::TraceRecorder* recorder);

  /// Advances simulated time: applies the crash/recovery schedule and
  /// partition windows, and moves due delayed messages into the arrival
  /// queue. The runner calls this once per epoch before OnEpoch.
  void BeginEpoch(int64_t epoch);

  int64_t epoch() const { return epoch_; }
  int num_sites() const { return num_sites_; }
  bool SiteUp(int site) const {
    return up_[static_cast<size_t>(site)] != 0;
  }
  bool Partitioned() const { return partitioned_; }

  /// Sites whose crash window ended at this epoch's BeginEpoch. Schemes
  /// re-sync per-site state (thresholds, filters) for these.
  const std::vector<int>& newly_recovered() const { return newly_recovered_; }

  /// One-way site -> coordinator send (alarm, filter/band report, ...).
  /// `payload` rides along for delayed deliveries (see TakeArrivals).
  /// `reliable` engages the ack/retransmission machinery when the spec's
  /// RetryPolicy enables acks; otherwise it is a single transmission.
  SendStatus SendFromSite(int site, MessageType type, bool reliable,
                          int64_t payload = 0);

  /// One-way coordinator -> site send (threshold/filter update).
  SendStatus SendToSite(int site, MessageType type, bool reliable,
                        int64_t payload = 0);

  /// A delayed site -> coordinator message that has now arrived.
  struct Arrival {
    MessageType type = MessageType::kAlarm;
    int site = 0;
    int64_t payload = 0;
    int64_t sent_epoch = 0;
  };

  /// Removes and returns this epoch's arrivals of one type (coordinator
  /// inbox). Schemes poll this for stale alarms / reports.
  std::vector<Arrival> TakeArrivals(MessageType type);

  /// One coordinator poll round with a per-epoch deadline: a request and a
  /// response per site, with bounded retransmission of the round trip when
  /// acks are enabled. Sites that cannot be reached are resolved via
  /// DegradeMode: last-known value or `pessimistic[i]` (pass an empty
  /// vector for schemes with no pessimistic bound; 0 is then the final
  /// fallback). Successful responses update the last-known table.
  PollOutcome PollSites(const std::vector<int64_t>& true_values,
                        std::span<const int64_t> weights,
                        std::span<const int64_t> pessimistic);

  /// Records a value the coordinator learned out of band (e.g. from a
  /// piggybacked alarm), improving kLastKnown degradation.
  void RecordLastKnown(int site, int64_t value);

  /// Charges nothing; bumps the resync stat (schemes call this when they
  /// push recovery state to a rejoined site).
  void CountResync(int64_t n = 1) {
    stats_.resyncs += n;
    DCV_OBS_EVENT(recorder_, obs::TraceEventKind::kResync, epoch_,
                  obs::TraceRecorder::kCoordinator, n);
  }

  const ChannelStats& stats() const { return stats_; }
  const FaultSpec& spec() const { return spec_; }

  /// True when the spec can never inject a fault (the bit-identical path).
  bool perfect() const { return perfect_; }

 private:
  struct Pending {
    MessageType type;
    int site;
    int64_t payload;
    int64_t sent_epoch;
    int64_t deliver_epoch;
    bool to_coordinator;
  };

  double LossFor(int site) const;
  bool Lose(int site);

  /// Charges `n` wire messages of `type` to the MessageCounter and, when an
  /// observer is attached, to the mirrored registry counter.
  void Charge(MessageType type, int64_t n = 1) {
    counter_->Count(type, n);
    DCV_OBS_COUNT(msg_counters_[static_cast<size_t>(type)], n);
  }
  /// One-way transmission fate shared by both directions. Charges the
  /// counter; returns kDelivered/kDelayed/kLost. `receiver_up` covers the
  /// crashed-receiver black hole.
  SendStatus TransmitOnce(int site, MessageType type, int64_t payload,
                          bool to_coordinator, bool receiver_up,
                          bool allow_delay);
  SendStatus SendOneWay(int site, MessageType type, bool reliable,
                        int64_t payload, bool to_coordinator);

  FaultSpec spec_;
  bool perfect_ = true;
  int num_sites_ = 0;
  MessageCounter* counter_ = nullptr;
  Rng rng_;
  int64_t epoch_ = 0;
  bool partitioned_ = false;
  std::vector<char> up_;
  std::vector<int> newly_recovered_;
  std::vector<Pending> pending_;
  std::vector<Arrival> arrivals_;
  std::vector<int64_t> last_known_;
  std::vector<char> has_last_known_;
  ChannelStats stats_;

  /// Observability (all null when detached). msg_counters_ caches one
  /// registry counter per MessageType so charging a message is one relaxed
  /// atomic add, with no name lookup on the hot path.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* recorder_ = nullptr;
  std::array<obs::Counter*, kNumMessageTypes> msg_counters_{};
};

}  // namespace dcv

#endif  // DCV_SIM_CHANNEL_H_
