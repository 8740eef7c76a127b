#ifndef DCV_RUNTIME_ACTOR_MESSAGE_H_
#define DCV_RUNTIME_ACTOR_MESSAGE_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace dcv {

/// Address of the coordinator actor; sites are addressed 0..num_sites-1.
inline constexpr int32_t kCoordinatorId = -1;

/// What travels between actors. The runtime deliberately splits two planes:
///
///  * the DATA plane — protocol messages of the detection scheme (alarms,
///    poll rounds, threshold pushes). Their *fate* (loss, delay,
///    duplication, crash black-holing) and their MessageCounter charge are
///    decided by the coordinator-owned fault-injecting `Channel`, exactly
///    as in the lockstep simulator;
///  * the CONTROL plane — virtual-clock synchronization (kEpochStart /
///    kEpochReport / kEpochDone / kSiteDown) and lifecycle (kShutdown /
///    kSiteDone). Control messages are free: they model the passage of
///    simulated time, not network traffic, and are never charged or
///    faulted.
///
/// The virtual-time barrier is worker-addressed: one range command per
/// (shard, worker) pair covers every site of that worker inside the
/// shard's range [to, value). A site answers only when its local constraint
/// fires (one kEpochReport), and the worker closes the range with one
/// kEpochDone whose `from` is the range's lowest site, so it routes back to
/// the shard that sent the command. Poll rounds fan out the same way
/// (kPollRange) and collect one kPollResponse per site.
///
/// The transport itself is reliable; it carries ground truth between
/// threads. This is what makes virtual-time runs bit-identical to the
/// simulator: the Channel consumes the same inputs in the same order no
/// matter how the threads interleave or how many sites a message covers.
enum class ActorMsgKind : uint8_t {
  // Control plane.
  kEpochStart,   ///< Coordinator -> worker, range: step the worker's sites
                 ///< in [to, value) through this epoch.
  kEpochReport,  ///< Site -> coordinator: local alarm this epoch
                 ///< (value = observed X_i; flag = true).
  kShutdown,     ///< Coordinator -> site: drain and exit.
  kSiteDone,     ///< Site -> coordinator: workload exhausted
                 ///< (value = updates processed).
  // Data plane (free-running mode; virtual mode batches these into the
  // epoch report / poll round).
  kAlarm,            ///< Site -> coordinator: local constraint violated.
  kPollRequest,      ///< Coordinator -> site: report your current value.
  kPollResponse,     ///< Site -> coordinator: current value.
  kThresholdUpdate,  ///< Coordinator -> site: new local threshold (value).
  // Virtual-time barrier, worker-addressed (see above).
  kEpochDone,  ///< Worker -> coordinator: range [from, value) stepped; every
               ///< alarm report of the range precedes it.
  kPollRange,  ///< Coordinator -> worker, range: every site of the worker
               ///< in [to, value) answers with a kPollResponse.
  kSiteDown,   ///< Coordinator -> site: crashed for the next kEpochStart
               ///< (its local constraint cannot fire).
  // Control plane, process-local only (never crosses the wire; the socket
  // decoder rejects it like any unknown kind).
  kPing,  ///< Root -> shard: liveness probe; a live shard answers with a
          ///< heartbeat on its root mailbox. Silence marks it dead.
};

/// The last kind that may cross the wire; everything after it is
/// process-local.
inline constexpr ActorMsgKind kLastWireKind = ActorMsgKind::kSiteDown;

std::string_view ActorMsgKindName(ActorMsgKind kind);

struct ActorMessage {
  ActorMsgKind kind = ActorMsgKind::kEpochStart;
  int64_t epoch = 0;  ///< Virtual epoch (site-local update index when free).
  int64_t value = 0;  ///< Kind-specific payload.
  bool flag = false;  ///< kEpochReport: alarmed.
};

/// A routed message: `to`/`from` are actor ids (kCoordinatorId or a site).
struct Envelope {
  int32_t from = kCoordinatorId;
  int32_t to = kCoordinatorId;
  ActorMessage msg;
};

/// True for the worker-addressed range commands (kEpochStart, kPollRange).
inline bool IsRangeCommand(ActorMsgKind kind) {
  return kind == ActorMsgKind::kEpochStart || kind == ActorMsgKind::kPollRange;
}

/// Checks a range command against the worker that is to execute it: `to`
/// must be a site of `worker` (to % num_workers == worker) and the end
/// `msg.value` must satisfy to < end <= num_sites. Other kinds pass. The
/// socket decoder and the site engine both call this, so a hostile range
/// is refused with a named error before any site state is indexed.
Status CheckRangeCommand(const Envelope& e, int num_sites, int num_workers,
                         int worker);

}  // namespace dcv

#endif  // DCV_RUNTIME_ACTOR_MESSAGE_H_
