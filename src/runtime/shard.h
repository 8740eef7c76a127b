#ifndef DCV_RUNTIME_SHARD_H_
#define DCV_RUNTIME_SHARD_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/mailbox.h"
#include "runtime/shard_layout.h"
#include "runtime/transport.h"
#include "sim/channel.h"

namespace dcv {

/// The shard half of the two-level coordinator tree. Each shard
/// coordinator thread owns a contiguous range of sites (shard_layout.h):
/// alarm intake, threshold distribution, and the per-shard leg of every
/// poll round for exactly those sites. The root aggregator (coordinator.cc)
/// drives the shards and combines their partials into the global
/// constraint decision, so per-round work at the root is O(num_shards)
/// messages instead of O(num_sites).
///
/// Determinism contract (virtual-time mode): shards never touch a Channel.
/// They relay ground truth between the transport and the root; every
/// channel call — the single source of message fates, RNG draws, and
/// MessageCounter charges — stays on the root thread, issued in ascending
/// site order. That is why virtual runs are bit-identical to the lockstep
/// simulator for any shard count; a 1-shard run is the same code with the
/// one leg executed inline on the root thread.
///
/// The virtual-time legs address workers, not sites: one range command per
/// (shard, worker) pair with sites in the shard's range, so an epoch moves
/// O(k·W) control envelopes plus one report per alarmed site instead of
/// O(N) per phase (actor_message.h has the protocol).
///
/// Free-running mode inverts the split: each shard owns a Channel over its
/// own site range (fault spec sliced via SliceFaultSpec) and aggregates
/// its poll leg locally — partial weighted SUM plus MIN/MAX — so the root
/// combines k partials without ever materializing per-site values. A
/// 1-shard run is the same tree with one shard thread under the root. No
/// per-epoch determinism is claimed in this mode.

/// Root -> shard command, virtual-time mode only. Travels over an internal
/// Mailbox (never the transport): epoch commands carry vectors that do not
/// fit an Envelope, and in virtual mode the shard's blocking wait
/// alternates strictly between this box and the transport, so two sources
/// never race.
struct ShardCmd {
  enum class Kind {
    kEpoch,     ///< Run one epoch barrier over the shard's sites.
    kPoll,      ///< Fan out one poll round and report the responses.
    kLayout,    ///< Adopt a new shard layout (and plan slice) mid-run.
    kShutdown,  ///< Forward kShutdown to the sites and exit.
  };
  Kind kind = Kind::kEpoch;
  int64_t epoch = 0;
  /// kEpoch: global ids of the shard's sites that are down this epoch, in
  /// ascending order (the root owns the channel and thus the crash
  /// schedule). Empty on a fault-free run.
  std::vector<int> down_sites;
  /// kEpoch: (global site, threshold) for every threshold re-sync that got
  /// through the wire this epoch (root already charged the sends); the
  /// shard pushes the transport messages so the per-site
  /// update-before-epoch-start FIFO holds with a single producer per site.
  std::vector<std::pair<int, int64_t>> resync;
  /// kLayout: the new versioned layout. Sent only at an epoch boundary (no
  /// in-flight data-plane traffic), after the transport itself adopted the
  /// layout, and the command box is FIFO — so the shard switches ranges
  /// strictly between epochs.
  ShardLayout layout;
};

/// Shard -> root message (internal mailbox in both modes).
struct RootMsg {
  enum class Kind {
    kEpochPartial,  ///< Virtual: epoch barrier done; entries = alarmed sites.
    kPollPartial,   ///< Poll leg done. Virtual: values = every site's value.
                    ///< Free: aggregated sum/min/max, no per-site entries.
    kAlarmNotice,   ///< Free: a delivered alarm needs a poll round.
    kSiteDone,      ///< Free: the owned sites that reported kSiteDone in
                    ///< one drained inbox burst. A chaos'd shard dies only
                    ///< between bursts, so whatever it relayed stays
                    ///< counted and the replacement relays the rest.
    kHeartbeat,     ///< Free: reply to the root's kPing liveness probe.
    kShardExit,     ///< Free: shard exiting; final per-shard accounting.
    kError,         ///< Shard hit a protocol/transport error; see status.
  };
  Kind kind = Kind::kEpochPartial;
  int shard = 0;
  int64_t epoch = 0;
  /// (global site, value) pairs. kEpochPartial: alarmed sites and their
  /// observed values, in ascending site order. kSiteDone: each done site's
  /// update count, in arrival order.
  std::vector<std::pair<int, int64_t>> entries;
  /// kPollPartial, virtual-time mode: every owned site's response in site
  /// order, starting at the shard's first site.
  std::vector<int64_t> values;
  // kPollPartial, free-running mode: the shard-aggregated poll leg.
  int64_t partial_sum = 0;  ///< Weighted sum over the shard's sites.
  int64_t partial_min = 0;  ///< Min/max of the resolved per-site values —
  int64_t partial_max = 0;  ///< groundwork for MIN/MAX runtime constraints.
  int responses = 0;
  int timeouts = 0;
  // kShardExit: merged into the run totals by the root.
  int64_t alarms = 0;
  MessageCounter messages;
  ChannelStats reliability;
  Status status;  ///< kError (and kShardExit on abnormal transport close).
};

/// Everything one shard coordinator thread needs. Pointers are owned by
/// the root and outlive the thread.
struct ShardContext {
  int shard = 0;
  ShardLayout layout;
  Transport* transport = nullptr;
  Mailbox<ShardCmd>* cmds = nullptr;  ///< Virtual mode only.
  Mailbox<RootMsg>* to_root = nullptr;
  // Free-running mode only. The spans view the root's config over the
  // shard's range, indexed by shard-local site.
  std::span<const int64_t> weights;
  /// Pessimistic poll fallbacks; empty for the polling protocol.
  std::span<const int64_t> domain_max;
  FaultSpec faults;  ///< Sliced via SliceFaultSpec.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* recorder = nullptr;
  obs::Counter* alarms_rx = nullptr;  ///< Shared "runtime/coordinator/alarms".
  /// Virtual mode: shared "runtime/coordinator/barrier_envelopes".
  obs::Counter* barrier_envelopes = nullptr;
  // Chaos injection (tests / --chaos runs): the shard kills itself at a
  // deterministic point, simulating a crashed coordinator thread.
  /// Virtual mode: die the instant the kEpoch command for this epoch
  /// arrives, before sending anything — the root re-executes the command.
  int64_t die_at_epoch = -1;
  /// Free mode: die after fully processing this many inbox batches. Dying
  /// at a batch boundary means every consumed message was handled and
  /// every unconsumed one is still queued for the replacement shard.
  int64_t die_after_batches = -1;
};

/// Per-thread state of the virtual-mode legs: envelope batches reused from
/// call to call (the transport hands `fanout` back empty with a buffer to
/// refill and drains reply bursts into `inbox`, so a steady run allocates
/// nothing per leg) and the barrier counter every epoch leg charges.
struct ShardLegBuffers {
  std::vector<Envelope> fanout;
  std::vector<Envelope> inbox;
  /// "runtime/coordinator/barrier_envelopes": each epoch leg adds the
  /// envelopes it moved — re-syncs, down markers and range starts out,
  /// alarm reports and done markers back. Null = not counted.
  obs::Counter* barrier_envelopes = nullptr;
};

/// Body of one shard coordinator thread, virtual-time mode: serve ShardCmds
/// until kShutdown (or a closed box / transport error).
void RunShardVirtual(ShardContext ctx);

/// The three virtual-mode shard legs. The shard thread runs them, and so
/// does the root for a 1-shard run and for a dead shard's pending command
/// (direct attachment after a shard crash). One code path is what makes
/// both transparent: the sites cannot tell who is on the other end of the
/// transport.
///
/// ShardEpochLeg: threshold re-syncs and down markers (per site), then one
/// kEpochStart range per worker with sites in the shard; collects the
/// alarm reports until every range's kEpochDone is in. `alarmed` gets
/// (global site, value) for every alarmed site in ascending order.
/// ShardPollLeg: one kPollRange per worker; writes every owned site's
/// response to values[0 .. shard size) in site order. ShardShutdownLeg:
/// forwards kShutdown to every owned site.
Status ShardEpochLeg(Transport* transport, const ShardLayout& layout,
                     int shard, const ShardCmd& cmd, ShardLegBuffers* buffers,
                     std::vector<std::pair<int, int64_t>>* alarmed);
Status ShardPollLeg(Transport* transport, const ShardLayout& layout,
                    int shard, int64_t epoch, ShardLegBuffers* buffers,
                    int64_t* values);
void ShardShutdownLeg(Transport* transport, const ShardLayout& layout,
                      int shard);

/// Body of one shard coordinator thread, free-running mode: drain the
/// shard's transport inbox (alarms, poll responses, site-done, and the
/// root's envelope-borne commands) until the root's kShutdown. Site-done
/// reports go to the root as one kSiteDone per drained burst.
void RunShardFree(ShardContext ctx);

/// Remaps a global fault spec onto one shard's contiguous site range:
/// per-site loss and crash windows are sliced and shifted to shard-local
/// site ids, partitions (coordinator-wide by definition) are kept, and the
/// channel seed is decorrelated per shard so the k private RNG streams are
/// unrelated while still a pure function of (seed, shard).
FaultSpec SliceFaultSpec(const FaultSpec& faults, const ShardLayout& layout,
                         int shard);

}  // namespace dcv

#endif  // DCV_RUNTIME_SHARD_H_
