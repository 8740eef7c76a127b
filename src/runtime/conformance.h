#ifndef DCV_RUNTIME_CONFORMANCE_H_
#define DCV_RUNTIME_CONFORMANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "runtime/runtime.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace dcv {

/// One conformance scenario: the same trace, constraint, solver, and fault
/// spec run through both the lockstep simulator and the threaded runtime in
/// virtual-time mode.
struct ConformanceSpec {
  RuntimeProtocol protocol = RuntimeProtocol::kLocalThreshold;
  const ThresholdSolver* solver = nullptr;  ///< kLocalThreshold only.
  int64_t poll_period = 5;                  ///< kPolling only.
  std::vector<int64_t> weights;             ///< Empty = all ones.
  int64_t global_threshold = 0;
  FaultSpec faults;
  int num_workers = 0;  ///< 0 = auto (see RuntimeOptions::num_workers).

  /// Coordinator shard count for the runtime runs (two-level coordinator
  /// tree; 1 = no shard threads). Virtual-time results must be bit-identical for every
  /// legal value — sharded conformance IS the determinism proof.
  int num_shards = 1;

  /// kSocket adds a THIRD run over loopback TCP: the harness spawns one
  /// in-process site-worker driver per worker (the exact code `dcvtool
  /// site-worker` runs), connects them to an ephemeral-port coordinator,
  /// and diffs that run against the lockstep reference too.
  TransportKind transport = TransportKind::kThread;

  /// Chaos: kill a shard coordinator / sever a worker link / push a
  /// mid-run reshard at a seed-resolved point DURING the runtime runs (the
  /// lockstep reference always runs healthy). Conformance with chaos on is
  /// the recovery proof: the runtime must survive the failure AND still
  /// produce bit-identical virtual-time detections. kill-worker needs the
  /// socket transport (there is no link to sever in-process) and is
  /// applied to the socket run only.
  ChaosSpec chaos;
  /// Dead-shard detection window for the runtime runs; must be > 0 when
  /// chaos kills a shard (the root has to notice the silence).
  int heartbeat_timeout_ms = 0;
};

/// Side-by-side outcome plus the verdict. `identical` demands agreement
/// per epoch (alarms, polled, violation_reported), on every per-type
/// message count, and on the channel's wire-level reliability stats — not
/// just equal totals.
struct ConformanceReport {
  SimResult lockstep;
  RuntimeResult runtime;
  std::vector<EpochDetection> lockstep_epochs;
  RuntimeResult socket_runtime;  ///< Filled when ran_socket.
  bool ran_socket = false;
  bool identical = false;
  std::string mismatch;  ///< Empty when identical; else first divergence.
};

/// Runs both implementations and diffs them. A non-OK status means a run
/// failed outright; a report with identical == false means both ran but
/// disagreed (the mismatch string says where first).
Result<ConformanceReport> RunConformance(const Trace& training,
                                         const Trace& eval,
                                         const ConformanceSpec& spec);

}  // namespace dcv

#endif  // DCV_RUNTIME_CONFORMANCE_H_
