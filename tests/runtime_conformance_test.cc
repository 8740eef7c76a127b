#include "runtime/conformance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "runtime/plan.h"
#include "runtime/runtime.h"
#include "runtime/site_worker.h"
#include "sim/local_scheme.h"
#include "threshold/fptas.h"
#include "threshold/heuristics.h"
#include "trace/snmp_synth.h"
#include "trace/stats.h"
#include "trace/synthetic.h"

namespace dcv {
namespace {

// The tentpole guarantee: the threaded runtime in virtual-time mode is
// bit-identical to the lockstep simulator — same per-epoch alarms, polls,
// and violation verdicts, same per-type message counts, same wire-level
// reliability stats — because the coordinator replays the protocol through
// the fault-injecting Channel in the exact order the lockstep schemes use.

struct Workload {
  Trace training{0};
  Trace eval{0};
};

Workload MakeSyntheticWorkload(uint64_t seed, int num_sites = 4,
                               int64_t train_epochs = 600,
                               int64_t eval_epochs = 600) {
  SyntheticTraceOptions options;
  options.num_sites = num_sites;
  options.num_epochs = train_epochs + eval_epochs;
  options.seed = seed;
  options.marginal = Marginal::kLogNormal;
  options.param1 = 4.0;
  options.param2 = 0.8;
  options.domain_max = 1'000'000;
  options.heterogeneous = true;
  auto trace = GenerateSyntheticTrace(options);
  EXPECT_TRUE(trace.ok());
  Workload w;
  w.training = *trace->Slice(0, train_epochs);
  w.eval = *trace->Slice(train_epochs, train_epochs + eval_epochs);
  return w;
}

int64_t PickThreshold(const Workload& w, double overflow_fraction,
                      const std::vector<int64_t>& weights = {}) {
  auto t = ThresholdForOverflowFraction(w.eval, weights, overflow_fraction);
  EXPECT_TRUE(t.ok());
  return *t;
}

void ExpectConformant(const Workload& w, const ConformanceSpec& spec) {
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  // The run must be non-trivial: something happened worth comparing.
  EXPECT_GT(report->lockstep.messages.total(), 0);
  EXPECT_EQ(report->lockstep.epochs,
            static_cast<int64_t>(report->runtime.detections.size()));
  // Aggregate scoring agrees too (implied by per-epoch equality, but this
  // also exercises the runtime's own ground-truth accounting).
  EXPECT_EQ(report->lockstep.true_violations, report->runtime.true_violations);
  EXPECT_EQ(report->lockstep.detected_violations,
            report->runtime.detected_violations);
  EXPECT_EQ(report->lockstep.missed_violations,
            report->runtime.missed_violations);
  EXPECT_EQ(report->lockstep.false_alarm_epochs,
            report->runtime.false_alarm_epochs);
  EXPECT_EQ(report->lockstep.total_alarms, report->runtime.total_alarms);
  EXPECT_EQ(report->lockstep.polled_epochs, report->runtime.polled_epochs);
}

TEST(RuntimeConformanceTest, LocalFptasOnSnmpTrace) {
  SnmpTraceOptions options;
  options.num_sites = 5;
  options.num_weeks = 2;
  options.seed = 7;
  auto trace = GenerateSnmpTrace(options);
  ASSERT_TRUE(trace.ok());
  const int64_t week = EpochsPerWeek(options);
  Workload w;
  w.training = *trace->Slice(0, week);
  w.eval = *trace->Slice(week, 2 * week);

  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.01);
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, LocalEqualValueWithWeights) {
  Workload w = MakeSyntheticWorkload(21);
  EqualValueSolver solver;
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.weights = {3, 1, 2, 1};
  spec.global_threshold = PickThreshold(w, 0.02, spec.weights);
  spec.num_workers = 2;  // Multiplexed workers must not change anything.
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, PollingBaseline) {
  Workload w = MakeSyntheticWorkload(33);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 3;
  spec.global_threshold = PickThreshold(w, 0.05);
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, LocalFptasUnderChannelFaults) {
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.faults.loss = 0.1;
  spec.faults.duplicate = 0.05;
  spec.faults.delay = 0.1;
  spec.faults.max_delay_epochs = 2;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/1, /*from=*/100, /*to=*/220},
                         {/*site=*/3, /*from=*/400, /*to=*/450}};
  spec.faults.partitions = {{/*from=*/300, /*to=*/320}};
  spec.faults.degrade = DegradeMode::kAssumeBreach;
  spec.faults.seed = 0xfeedULL;
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, PollingUnderLoss) {
  Workload w = MakeSyntheticWorkload(77);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 2;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.faults.loss = 0.15;
  spec.faults.retry.enable_acks = true;
  ExpectConformant(w, spec);
}

// The socket transport must be indistinguishable from the in-process
// transport: a third run over real loopback TCP (multi-process topology,
// in-process worker drivers) produces the same per-epoch detections and
// message counts as both the lockstep simulator and the thread runtime.
TEST(RuntimeConformanceTest, SocketTransportMatchesLockstep) {
  Workload w = MakeSyntheticWorkload(101);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.transport = TransportKind::kSocket;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->socket_runtime.messages.total(),
            report->lockstep.messages.total());
  EXPECT_EQ(report->socket_runtime.detected_violations,
            report->lockstep.detected_violations);
  // The TCP fabric itself must have been clean: no decode errors, no
  // unexpected disconnects, every frame accounted for.
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
  EXPECT_EQ(report->socket_runtime.socket.disconnects, 0);
  EXPECT_GT(report->socket_runtime.socket.frames_sent, 0);
}

TEST(RuntimeConformanceTest, SocketTransportUnderChannelFaults) {
  // Channel faults are simulated above the transport, so they must replay
  // identically over TCP too — including ack retries and crash windows.
  Workload w = MakeSyntheticWorkload(113, /*num_sites=*/5,
                                     /*train_epochs=*/400,
                                     /*eval_epochs=*/400);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 3;
  spec.transport = TransportKind::kSocket;
  spec.faults.loss = 0.1;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/2, /*from=*/50, /*to=*/120}};
  spec.faults.seed = 0xabcdULL;
  ExpectConformant(w, spec);
}

TEST(RuntimeConformanceTest, SocketPollingBaseline) {
  Workload w = MakeSyntheticWorkload(131, /*num_sites=*/3,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 4;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.transport = TransportKind::kSocket;
  ExpectConformant(w, spec);
}

// Sharded coordinator tree (the two-level refactor): for every legal shard
// count, virtual-time runs must stay bit-identical to the lockstep
// simulator — the shards are channel-free relays, and the root issues every
// channel call in flat-coordinator order. These tests are the determinism
// proof for the topology, not just a smoke test.

TEST(ShardedConformanceTest, LocalFptasShards2And4) {
  Workload w = MakeSyntheticWorkload(21);
  FptasSolver solver(0.05);
  for (int shards : {2, 4}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = shards;
    ExpectConformant(w, spec);
  }
}

TEST(ShardedConformanceTest, PollingShards2) {
  Workload w = MakeSyntheticWorkload(33);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 3;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.num_shards = 2;
  ExpectConformant(w, spec);
}

TEST(ShardedConformanceTest, LocalFptasUnderChannelFaultsShards2And4) {
  // The hard case: loss, duplication, delay, ack retries, crash windows,
  // and a coordinator partition, re-run at 2 and 4 shards. Identical
  // reliability stats prove the root (not the shards) owns every channel
  // RNG draw.
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  for (int shards : {2, 4}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = shards;
    spec.faults.loss = 0.1;
    spec.faults.duplicate = 0.05;
    spec.faults.delay = 0.1;
    spec.faults.max_delay_epochs = 2;
    spec.faults.retry.enable_acks = true;
    spec.faults.retry.max_attempts = 3;
    spec.faults.crashes = {{/*site=*/1, /*from=*/100, /*to=*/220},
                           {/*site=*/3, /*from=*/400, /*to=*/450}};
    spec.faults.partitions = {{/*from=*/300, /*to=*/320}};
    spec.faults.degrade = DegradeMode::kAssumeBreach;
    spec.faults.seed = 0xfeedULL;
    ExpectConformant(w, spec);
  }
}

TEST(ShardedConformanceTest, UnevenPartitionSevenSitesThreeShards) {
  // Regression for the uneven split: 7 sites over 3 shards gives shard
  // sizes {3, 2, 2}; the contiguous layout must keep the global replay
  // order ascending across the size boundary.
  Workload w = MakeSyntheticWorkload(143, /*num_sites=*/7);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_shards = 3;
  spec.num_workers = 2;  // Worker multiplexing is independent of sharding.
  spec.faults.loss = 0.05;
  spec.faults.retry.enable_acks = true;
  spec.faults.crashes = {{/*site=*/2, /*from=*/80, /*to=*/160},
                         {/*site=*/6, /*from=*/200, /*to=*/260}};
  ExpectConformant(w, spec);
}

TEST(ShardedConformanceTest, SocketTransportShards2) {
  // Sharding is coordinator-process-local: the wire format does not change,
  // so a sharded coordinator over real loopback TCP must still match the
  // lockstep simulator bit for bit.
  Workload w = MakeSyntheticWorkload(101);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
  EXPECT_EQ(report->socket_runtime.socket.disconnects, 0);
}

TEST(ShardedConformanceTest, SocketTransportUnderFaultsShards3) {
  Workload w = MakeSyntheticWorkload(113, /*num_sites=*/5,
                                     /*train_epochs=*/400,
                                     /*eval_epochs=*/400);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 3;
  spec.num_shards = 3;
  spec.transport = TransportKind::kSocket;
  spec.faults.loss = 0.1;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/2, /*from=*/50, /*to=*/120}};
  spec.faults.seed = 0xabcdULL;
  ExpectConformant(w, spec);
}

// Runs a free-running synthetic workload. Over the socket transport two
// in-process site workers connect as separate worker processes would.
Result<RuntimeResult> RunFreeSynthetic(RuntimeOptions options, int sites,
                                       int64_t updates, bool socket) {
  options.virtual_time = false;
  std::vector<std::thread> workers;
  if (socket) {
    options.transport = TransportKind::kSocket;
    options.listen_port = 0;
    options.num_workers = 2;
    const uint64_t seed = options.seed;
    const int64_t synthetic_max = options.synthetic_max;
    options.on_listening = [&workers, sites, updates, seed,
                            synthetic_max](int port) {
      for (int w = 0; w < 2; ++w) {
        workers.emplace_back([=] {
          SiteWorkerOptions wo;
          wo.port = port;
          wo.worker = w;
          wo.num_workers = 2;
          wo.num_sites = sites;
          wo.synthetic_updates = updates;
          wo.seed = seed;
          wo.synthetic_max = synthetic_max;
          auto report = RunSiteWorker(nullptr, wo);
          EXPECT_TRUE(report.ok()) << report.status().message();
        });
      }
    };
  }
  auto result = RunSyntheticRuntime(sites, updates, options);
  for (std::thread& t : workers) {
    t.join();
  }
  return result;
}

// Free-running mode has no determinism claim, but it must drain the whole
// workload and account for every update exactly once — for every shard
// count, over threads and over sockets.
TEST(ShardedRuntimeFreeTest, DrainsFullWorkloadAcrossShardCounts) {
  const std::pair<bool, int> runs[] = {
      {false, 1}, {false, 2}, {false, 3}, {true, 1}, {true, 2}};
  for (const auto& [socket, shards] : runs) {
    SCOPED_TRACE(std::string(socket ? "socket" : "thread") +
                 " shards=" + std::to_string(shards));
    RuntimeOptions options;
    options.num_shards = shards;
    options.seed = 9;
    options.synthetic_max = 1000;
    options.global_threshold = 7 * 1000;
    options.thresholds.assign(7, 900);  // Alarm-heavy.
    options.domain_max.assign(7, 1000);
    auto result = RunFreeSynthetic(options, 7, 500, socket);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->total_updates, 7 * 500);
    ASSERT_EQ(result->site_updates.size(), 7u);
    for (int64_t u : result->site_updates) {
      EXPECT_EQ(u, 500);
    }
    EXPECT_GT(result->total_alarms, 0);
    EXPECT_GT(result->polled_epochs, 0);
  }
}

// Site-done reports reach the root as one relay per drained shard-inbox
// burst; at 100k sites every one of them must still land on its own site.
TEST(ShardedRuntimeFreeTest, QuietHundredThousandSitesReportEveryUpdate) {
  constexpr int kSites = 100'000;
  constexpr int64_t kUpdates = 10;
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeOptions options;
    options.num_shards = shards;
    options.num_workers = 2;
    options.seed = 5;
    // No thresholds: synthetic sites run unconstrained and never alarm.
    auto result = RunFreeSynthetic(options, kSites, kUpdates, false);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ASSERT_EQ(result->site_updates.size(), static_cast<size_t>(kSites));
    for (int i = 0; i < kSites; ++i) {
      ASSERT_EQ(result->site_updates[static_cast<size_t>(i)], kUpdates)
          << "site " << i;
    }
    EXPECT_EQ(result->total_updates, kSites * kUpdates);
    EXPECT_EQ(result->total_alarms, 0);
    EXPECT_EQ(result->polled_epochs, 0);
  }
}

// One free-running tree for every shard count: a 1-shard run registers
// the same coordinator metrics as a 3-shard run, poll_min/poll_max
// included.
TEST(ShardedRuntimeFreeTest, CoordinatorMetricNamesMatchAcrossShardCounts) {
  auto coordinator_names = [](int shards) {
    obs::MetricsRegistry registry;
    RuntimeOptions options;
    options.num_shards = shards;
    options.seed = 9;
    options.synthetic_max = 1000;
    options.global_threshold = 6 * 1000;
    options.thresholds.assign(6, 900);
    options.domain_max.assign(6, 1000);
    options.metrics = &registry;
    auto result = RunFreeSynthetic(options, 6, 400, false);
    EXPECT_TRUE(result.ok()) << result.status().message();
    std::set<std::string> names;
    const std::string prefix = "runtime/coordinator/";
    auto collect = [&](const auto& metrics) {
      for (const auto& entry : metrics) {
        if (entry.first.rfind(prefix, 0) == 0) {
          names.insert(entry.first);
        }
      }
    };
    if (result.ok()) {
      collect(result->metrics.counters);
      collect(result->metrics.gauges);
      collect(result->metrics.histograms);
    }
    return names;
  };
  const std::set<std::string> one = coordinator_names(1);
  EXPECT_EQ(one, coordinator_names(3));
  EXPECT_TRUE(one.count("runtime/coordinator/poll_min"));
  EXPECT_TRUE(one.count("runtime/coordinator/poll_max"));
}

// The runtime rejects shard counts outside [1, num_sites] up front.
TEST(ShardedRuntimeTest, RejectsBadShardCounts) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_shards = 0;
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
  options.num_shards = 5;
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
}

// Chaos conformance (the recovery proof): a shard coordinator killed at a
// seed-resolved epoch, a mid-run reshard, or a severed worker TCP link must
// leave the virtual-time detections bit-identical to the healthy lockstep
// simulator — recovery that changes results is not recovery.

TEST(ChaosConformanceTest, KillShardVirtualBitIdenticalAcrossSeeds) {
  Workload w = MakeSyntheticWorkload(21);
  FptasSolver solver(0.05);
  for (uint64_t chaos_seed : {3ULL, 11ULL, 29ULL}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = 2;
    spec.chaos.kind = ChaosKind::kKillShard;
    spec.chaos.seed = chaos_seed;
    spec.heartbeat_timeout_ms = 300;
    auto report = RunConformance(w.training, w.eval, spec);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->identical)
        << "chaos_seed=" << chaos_seed << ": " << report->mismatch;
    // The shard really died and the root really recovered it.
    EXPECT_EQ(report->runtime.shard_recoveries, 1) << "seed=" << chaos_seed;
    EXPECT_GT(report->runtime.recovery_ms, 0.0);
  }
}

TEST(ChaosConformanceTest, KillShardUnderChannelFaults) {
  // Recovery must also replay the fault-injecting channel identically:
  // the re-executed epoch leg goes through the same Channel calls in the
  // same order, so even RNG-driven loss patterns stay bit-identical.
  Workload w = MakeSyntheticWorkload(55, /*num_sites=*/5);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_shards = 4;
  spec.faults.loss = 0.1;
  spec.faults.retry.enable_acks = true;
  spec.faults.retry.max_attempts = 3;
  spec.faults.crashes = {{/*site=*/1, /*from=*/100, /*to=*/220}};
  spec.faults.seed = 0xfeedULL;
  spec.chaos.kind = ChaosKind::kKillShard;
  spec.chaos.seed = 7;
  spec.heartbeat_timeout_ms = 300;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_EQ(report->runtime.shard_recoveries, 1);
}

TEST(ChaosConformanceTest, KillShardSocketBitIdentical) {
  // The dead shard's sites live in remote worker processes: the root's
  // re-executed legs run over real TCP and must still match the lockstep
  // simulator bit for bit.
  Workload w = MakeSyntheticWorkload(101, /*num_sites=*/4,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  spec.chaos.kind = ChaosKind::kKillShard;
  spec.chaos.seed = 11;
  spec.heartbeat_timeout_ms = 300;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->runtime.shard_recoveries, 1);
  EXPECT_EQ(report->socket_runtime.shard_recoveries, 1);
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
}

TEST(ChaosConformanceTest, ReshardMidRunBitIdentical) {
  // A new site->shard layout pushed at an epoch boundary mid-run: routing
  // changes, results must not.
  Workload w = MakeSyntheticWorkload(143, /*num_sites=*/7);
  FptasSolver solver(0.1);
  for (uint64_t chaos_seed : {5ULL, 17ULL}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = 3;
    spec.chaos.kind = ChaosKind::kReshard;
    spec.chaos.seed = chaos_seed;
    auto report = RunConformance(w.training, w.eval, spec);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->identical)
        << "chaos_seed=" << chaos_seed << ": " << report->mismatch;
    EXPECT_EQ(report->runtime.reshards, 1);
    EXPECT_EQ(report->runtime.shard_recoveries, 0);
  }
}

TEST(ChaosConformanceTest, KillWorkerSocketReconnectsAndMatches) {
  // A worker's TCP link severed mid-run: the worker redials, both sides
  // replay the missed suffix, the run completes with the correct final
  // detections and a bounded duplicate count.
  Workload w = MakeSyntheticWorkload(113, /*num_sites=*/4,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  spec.chaos.kind = ChaosKind::kKillWorker;
  spec.chaos.seed = 13;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  const SocketStats& s = report->socket_runtime.socket;
  EXPECT_GE(s.disconnects, 1);
  EXPECT_EQ(s.reconnects, 1);
  // Replay may resend a handful of frames; dedup keeps them off the run.
  EXPECT_LE(s.duplicate_frames, 16);
  EXPECT_EQ(s.decode_errors, 0);
}

// Free-running mode claims no determinism, but chaos must not lose work:
// a killed shard's replacement drains the same inboxes, so every update is
// still consumed and every site still reports done exactly once.
TEST(ChaosRuntimeFreeTest, KillShardFreeRunningLosesNothing) {
  for (uint64_t chaos_seed : {3ULL, 9ULL}) {
    RuntimeOptions options;
    options.virtual_time = false;
    options.num_shards = 2;
    options.seed = 9;
    options.synthetic_max = 1000;
    options.global_threshold = 6 * 1000;
    options.thresholds.assign(6, 900);  // Alarm-heavy: real recovery load.
    options.domain_max.assign(6, 1000);
    options.chaos.kind = ChaosKind::kKillShard;
    options.chaos.seed = chaos_seed;
    options.heartbeat_timeout_ms = 200;
    auto result = RunSyntheticRuntime(6, 400, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->total_updates, 6 * 400) << "seed=" << chaos_seed;
    ASSERT_EQ(result->site_updates.size(), 6u);
    for (int64_t u : result->site_updates) {
      EXPECT_EQ(u, 400);
    }
    EXPECT_EQ(result->shard_recoveries, 1) << "seed=" << chaos_seed;
    EXPECT_GT(result->recovery_ms, 0.0);
  }
}

// Chaos needs a detectable configuration: kill-shard without a heartbeat
// window or with a single shard is rejected up front.
TEST(ChaosRuntimeTest, RejectsUndetectableChaosConfigs) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.chaos.kind = ChaosKind::kKillShard;
  options.num_shards = 1;  // No shard tree to kill a member of.
  options.heartbeat_timeout_ms = 200;
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
  options.num_shards = 2;
  options.heartbeat_timeout_ms = 0;  // Root would never notice the death.
  EXPECT_FALSE(RunSyntheticRuntime(4, 10, options).ok());
}

// The runtime's deployment plan must provision the same thresholds the
// lockstep scheme computes for itself from the same training data.
TEST(RuntimeConformanceTest, BuildLocalPlanMatchesSchemeThresholds) {
  Workload w = MakeSyntheticWorkload(91);
  FptasSolver solver(0.05);
  std::vector<int64_t> weights(4, 1);
  const int64_t threshold = PickThreshold(w, 0.01);

  auto plan = BuildLocalPlan(w.training, weights, threshold, solver);
  ASSERT_TRUE(plan.ok()) << plan.status().message();

  LocalThresholdScheme::Options o;
  o.solver = &solver;
  LocalThresholdScheme scheme(o);
  SimOptions sim_options;
  sim_options.global_threshold = threshold;
  auto result = RunSimulation(&scheme, sim_options, w.training, w.eval);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(plan->thresholds, scheme.thresholds());
  ASSERT_EQ(plan->domain_max.size(), 4u);
  for (int64_t m : plan->domain_max) {
    EXPECT_GT(m, 0);
  }
}

// --- Worker-addressed barrier ----------------------------------------------
//
// Every virtual run goes through the same shard legs — inline on the root
// thread for one shard, on shard threads otherwise — with one range command
// per (shard, worker) pair. These cover the shapes where ranges and
// per-site envelopes meet.

TEST(ShardedConformanceTest, OneLegPathAcrossShardCounts1To4) {
  // Lockstep, thread and socket runs (the harness adds the third run for
  // the socket transport) must agree for every shard count.
  Workload w = MakeSyntheticWorkload(61, /*num_sites=*/8);
  FptasSolver solver(0.05);
  for (int shards : {1, 2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_workers = 3;
    spec.num_shards = shards;
    spec.transport = TransportKind::kSocket;
    ExpectConformant(w, spec);
  }
}

TEST(ShardedConformanceTest, UnevenSevenSitesThreeShardsFourWorkers) {
  // Shards {0,1,2}, {3,4}, {5,6} over 4 workers (site % 4): worker 3 has
  // no site in shard 0, workers 1 and 2 none in shard 1, workers 0 and 3
  // none in shard 2. Empty pairs get no command and no done marker.
  Workload w = MakeSyntheticWorkload(149, /*num_sites=*/7);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_shards = 3;
  spec.num_workers = 4;
  ExpectConformant(w, spec);
}

TEST(ShardedConformanceTest, CrashPartitionAndResyncAcrossShardCounts) {
  // Down markers and threshold re-syncs travel per site ahead of the range
  // start; overlapping crash windows put two sites of one range down at
  // once, and a partition overlaps one of them.
  Workload w = MakeSyntheticWorkload(163, /*num_sites=*/6);
  FptasSolver solver(0.1);
  for (int shards : {1, 3}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_shards = shards;
    spec.num_workers = 2;
    spec.faults.loss = 0.05;
    spec.faults.retry.enable_acks = true;
    spec.faults.retry.max_attempts = 2;
    spec.faults.crashes = {{/*site=*/1, /*from=*/50, /*to=*/150},
                           {/*site=*/3, /*from=*/100, /*to=*/180},
                           {/*site=*/1, /*from=*/300, /*to=*/310}};
    spec.faults.partitions = {{/*from=*/120, /*to=*/140}};
    spec.faults.seed = 0x5eedULL;
    ExpectConformant(w, spec);
  }
}

TEST(ShardedConformanceTest, SocketSingleShardWithCrashes) {
  // The inline 1-shard leg over TCP: range commands, down markers and
  // re-syncs cross the wire and the done markers route back by sender.
  Workload w = MakeSyntheticWorkload(167, /*num_sites=*/5,
                                     /*train_epochs=*/300,
                                     /*eval_epochs=*/300);
  FptasSolver solver(0.1);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 3;
  spec.transport = TransportKind::kSocket;
  spec.faults.crashes = {{/*site=*/4, /*from=*/40, /*to=*/90}};
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  ASSERT_TRUE(report->ran_socket);
  EXPECT_EQ(report->socket_runtime.socket.decode_errors, 0);
}

TEST(ChaosConformanceTest, KillShardReExecutesRangeLegs) {
  // The root re-executes a dead shard's pending epoch leg: its range starts
  // go to three workers, and every later leg of that range runs inline.
  Workload w = MakeSyntheticWorkload(173, /*num_sites=*/9);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 3;
  spec.num_shards = 3;
  spec.faults.crashes = {{/*site=*/4, /*from=*/100, /*to=*/400}};
  spec.chaos.kind = ChaosKind::kKillShard;
  spec.chaos.seed = 19;
  spec.heartbeat_timeout_ms = 300;
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_EQ(report->runtime.shard_recoveries, 1);
}

// runtime/coordinator/barrier_envelopes counts what the epoch legs move:
// per epoch, one range start and one done marker per non-empty (shard,
// worker) pair, one report per alarmed site, plus one down marker per
// crashed site and one re-sync per recovered site.
TEST(RuntimeBarrierTest, BarrierEnvelopesPerEpochAreExact) {
  Workload w = MakeSyntheticWorkload(179, /*num_sites=*/7);
  FptasSolver solver(0.05);
  const int64_t epochs = w.eval.num_epochs();
  struct Case {
    int shards;
    int workers;
    int64_t pairs;  ///< Non-empty (shard, worker) pairs.
    std::vector<CrashWindow> crashes;
  };
  const std::vector<Case> cases = {
      {1, 3, 3, {}},
      {3, 4, 7, {}},  // Shards {0,1,2}, {3,4}, {5,6}: 3 + 2 + 2 pairs.
      {2, 2, 4, {{/*site=*/2, /*from=*/10, /*to=*/30},
                 {/*site=*/5, /*from=*/20, /*to=*/epochs + 5}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "shards=" << c.shards
                                    << " workers=" << c.workers);
    obs::MetricsRegistry metrics;
    RuntimeOptions options;
    options.protocol = RuntimeProtocol::kLocalThreshold;
    options.solver = &solver;
    options.global_threshold = PickThreshold(w, 0.02);
    options.num_shards = c.shards;
    options.num_workers = c.workers;
    options.faults.crashes = c.crashes;
    options.metrics = &metrics;
    auto result = RunMonitorRuntime(w.training, w.eval, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    int64_t expected = 0;
    for (const EpochDetection& det : result->detections) {
      expected += 2 * c.pairs + det.num_alarms;
    }
    for (const CrashWindow& crash : c.crashes) {
      expected += std::min(crash.to, epochs) - crash.from;  // Down markers.
      expected += crash.to < epochs ? 1 : 0;                // Re-sync.
    }
    EXPECT_GT(result->total_alarms, 0);
    EXPECT_EQ(metrics.counter("runtime/coordinator/barrier_envelopes")->value(),
              expected);
  }
}

}  // namespace
}  // namespace dcv
