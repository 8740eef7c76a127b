#ifndef DCV_RUNTIME_SITE_WORKER_H_
#define DCV_RUNTIME_SITE_WORKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/site_engine.h"
#include "runtime/socket_transport.h"
#include "trace/trace.h"

namespace dcv {

/// Configuration for one site-worker process (the remote half of a
/// socket-transport run; `dcvtool site-worker` is a thin wrapper).
struct SiteWorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int worker = 0;       ///< This process's worker index in [0, num_workers).
  int num_workers = 1;  ///< Must match the coordinator's fabric shape.
  int num_sites = 1;

  /// Synthetic workload (used when the eval trace is null): each owned site
  /// generates `synthetic_updates` values from its (seed, site) stream —
  /// the same derivation the in-process runtime uses, so a seed pins the
  /// streams across process boundaries too.
  int64_t synthetic_updates = 0;
  uint64_t seed = 42;
  int64_t synthetic_max = 1000000;

  SocketTransport::Options socket;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* recorder = nullptr;

  /// Cadence of cumulative telemetry pushes toward the coordinator; <= 0
  /// disables the periodic flusher (the final shutdown push still happens,
  /// so the coordinator's merge always sees this worker).
  int telemetry_interval_ms = 50;
};

/// What one worker process did, for its exit report.
struct SiteWorkerReport {
  std::vector<int> sites;  ///< Owned site ids (site % num_workers == worker).
  bool virtual_time = true;  ///< Mode adopted from the coordinator.
  int64_t total_updates = 0;
  SocketStats socket;
};

/// Connects to the coordinator, builds the SiteEngine over the owned sites
/// (site s is owned iff s % num_workers == worker), installs the initial thresholds the
/// coordinator pushes before epoch zero, then runs the standard worker loop
/// in whichever mode the coordinator's handshake advertised. Returns after
/// the coordinator's kShutdown broadcast. `eval` supplies trace-driven
/// workloads (owned sites replay their columns); null means synthetic.
Result<SiteWorkerReport> RunSiteWorker(const Trace* eval,
                                       const SiteWorkerOptions& options);

}  // namespace dcv

#endif  // DCV_RUNTIME_SITE_WORKER_H_
