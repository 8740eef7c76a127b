#include "runtime/site_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/conformance.h"
#include "runtime/runtime.h"
#include "runtime/transport.h"
#include "threshold/fptas.h"
#include "trace/stats.h"
#include "trace/synthetic.h"

namespace dcv {
namespace {

// The SoA engine's contract: driving a worker's sites from one flat loop
// (worker-addressed range commands, batched sends, coalesced drains) is
// OBSERVATIONALLY IDENTICAL to the lockstep simulator — same per-epoch
// detections, same per-type message counts, same wire-level reliability
// stats. These tests run every scenario through RunConformance, which diffs
// the runtime against the lockstep reference.

struct Workload {
  Trace training{0};
  Trace eval{0};
};

Workload MakeWorkload(uint64_t seed, int num_sites = 4,
                      int64_t train_epochs = 500, int64_t eval_epochs = 500) {
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

int64_t PickThreshold(const Workload& w, double overflow_fraction) {
  auto t = ThresholdForOverflowFraction(w.eval, {}, overflow_fraction);
  EXPECT_TRUE(t.ok());
  return *t;
}

/// Runs the spec and asserts the runtime is bit-identical to the lockstep
/// reference (and, for socket specs, the socket run too).
void ExpectMatchesLockstep(const Workload& w, const ConformanceSpec& spec) {
  auto report = RunConformance(w.training, w.eval, spec);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_EQ(report->runtime.total_updates,
            static_cast<int64_t>(w.eval.num_sites()) * w.eval.num_epochs());
}

TEST(SiteEngineConformanceTest, EnginesAgreeAcrossShardCounts) {
  Workload w = MakeWorkload(211, /*num_sites=*/6);
  FptasSolver solver(0.05);
  for (int shards : {1, 2, 4}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_workers = 2;
    spec.num_shards = shards;
    ExpectMatchesLockstep(w, spec);
  }
}

TEST(SiteEngineConformanceTest, EnginesAgreeUnderChannelFaults) {
  // Loss, duplication, delay, and ack retries: the channel RNG draws must
  // land identically whichever engine produced the reports, because the
  // root replays them in ascending site order regardless of transport
  // batching.
  Workload w = MakeWorkload(223, /*num_sites=*/5);
  FptasSolver solver(0.1);
  for (int shards : {1, 2}) {
    ConformanceSpec spec;
    spec.protocol = RuntimeProtocol::kLocalThreshold;
    spec.solver = &solver;
    spec.global_threshold = PickThreshold(w, 0.02);
    spec.num_workers = 2;
    spec.num_shards = shards;
    spec.faults.loss = 0.1;
    spec.faults.duplicate = 0.05;
    spec.faults.delay = 0.1;
    spec.faults.max_delay_epochs = 2;
    spec.faults.retry.enable_acks = true;
    spec.faults.retry.max_attempts = 3;
    spec.faults.seed = 0xbeefULL;
    ExpectMatchesLockstep(w, spec);
  }
}

TEST(SiteEngineConformanceTest, EnginesAgreePollingProtocol) {
  Workload w = MakeWorkload(227);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kPolling;
  spec.poll_period = 3;
  spec.global_threshold = PickThreshold(w, 0.05);
  spec.num_workers = 2;
  ExpectMatchesLockstep(w, spec);
}

TEST(SiteEngineConformanceTest, EnginesAgreeOverSocketTransport) {
  // The coalesced kEnvelopeBatch wire path: a worker process's engine
  // drains and sends through real loopback TCP frames and must still be
  // indistinguishable from the lockstep reference.
  Workload w = MakeWorkload(229, /*num_sites=*/4, /*train_epochs=*/300,
                            /*eval_epochs=*/300);
  FptasSolver solver(0.05);
  ConformanceSpec spec;
  spec.protocol = RuntimeProtocol::kLocalThreshold;
  spec.solver = &solver;
  spec.global_threshold = PickThreshold(w, 0.02);
  spec.num_workers = 2;
  spec.num_shards = 2;
  spec.transport = TransportKind::kSocket;
  ExpectMatchesLockstep(w, spec);
}

TEST(SiteEngineConformanceTest, EnginesAgreeOverSocketUnderLoss) {
  Workload w = MakeWorkload(233, /*num_sites=*/5, /*train_epochs=*/300,
                            /*eval_epochs=*/300);
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
  spec.faults.seed = 0xabcULL;
  ExpectMatchesLockstep(w, spec);
}

// Free-running mode claims no bit-identity, but the engine must drain the
// whole workload: every site processes every update exactly once.
TEST(SiteEngineFreeTest, BothEnginesDrainFullWorkload) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 9;
  options.synthetic_max = 1000;
  options.global_threshold = 6 * 1000;
  options.thresholds.assign(6, 900);  // Alarm-heavy.
  options.domain_max.assign(6, 1000);
  auto result = RunSyntheticRuntime(6, 400, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, 6 * 400);
  ASSERT_EQ(result->site_updates.size(), 6u);
  for (int64_t u : result->site_updates) {
    EXPECT_EQ(u, 400);
  }
  EXPECT_GT(result->total_alarms, 0);
}

// Synthetic value streams are keyed by (seed, site), never by slot or
// processing order: each captured stream equals the site's own RNG stream.
TEST(SiteEngineFreeTest, CapturedUpdateStreamsMatchActorBaseline) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 2;
  options.seed = 77;
  options.synthetic_max = 5000;
  options.global_threshold = 5 * 5000;
  options.thresholds.assign(5, 4500);
  options.domain_max.assign(5, 5000);
  options.capture_updates = true;
  auto result = RunSyntheticRuntime(5, 64, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result->captured_updates.size(), 5u);
  for (int site = 0; site < 5; ++site) {
    Rng rng = MakeSiteRng(77, site);
    std::vector<int64_t> want;
    for (int k = 0; k < 64; ++k) {
      want.push_back(rng.UniformInt(0, 5000));
    }
    EXPECT_EQ(result->captured_updates[static_cast<size_t>(site)], want)
        << "value stream diverges for site " << site;
  }
}

// The shutdown-ordering stress (satellite of the million-site PR): a
// free-running run at 10^5 sites multiplexed over a handful of workers and
// a sharded coordinator tree must terminate — kShutdown fan-out lands in
// bounded inboxes while engines are still producing, so any blocking send
// in the wrong place deadlocks here — and account for every update.
TEST(SiteEngineScaleTest, HundredThousandSitesShutdownCleanly) {
  constexpr int kSites = 100'000;
  constexpr int64_t kUpdates = 20;
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 4;
  options.num_shards = 2;
  options.seed = 5;
  options.synthetic_max = 1000;
  options.global_threshold = static_cast<int64_t>(kSites) * 1000;
  options.thresholds.assign(kSites, 900);  // ~10% breach: alarm pressure.
  options.domain_max.assign(kSites, 1000);
  auto result = RunSyntheticRuntime(kSites, kUpdates, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->total_updates, static_cast<int64_t>(kSites) * kUpdates);
  ASSERT_EQ(result->site_updates.size(), static_cast<size_t>(kSites));
  for (int64_t u : result->site_updates) {
    ASSERT_EQ(u, kUpdates);
  }
}

// One worker thread per site at 100k sites would ask the OS for 100k
// threads and abort inside the std::thread constructor; an explicit thread
// count past the ceiling must be refused with a clear error before any
// spawn.
TEST(SiteEngineScaleTest, ActorThreadPerSiteAtScaleIsRejectedCleanly) {
  RuntimeOptions options;
  options.virtual_time = false;
  options.num_workers = 100'000;
  auto result = RunSyntheticRuntime(100'000, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("worker threads"),
            std::string::npos)
      << result.status().message();
}

// Engine plumbing unit checks: dense slot mapping and threshold routing.
TEST(SiteEngineTest, SlotMappingAndThresholdRouting) {
  SiteEngine::Config cfg;
  cfg.worker = 1;
  cfg.num_workers = 3;
  cfg.num_sites = 8;  // Worker 1 owns sites 1, 4, 7 -> slots 0, 1, 2.
  cfg.thresholds = {100, 200, 300};
  cfg.synthetic_updates = 1;
  SiteEngine engine(std::move(cfg));
  EXPECT_EQ(engine.num_slots(), 3);
  EXPECT_EQ(engine.SiteOf(0), 1);
  EXPECT_EQ(engine.SiteOf(1), 4);
  EXPECT_EQ(engine.SiteOf(2), 7);
  EXPECT_TRUE(engine.ApplyThresholdUpdate(4, 250));
  EXPECT_FALSE(engine.ApplyThresholdUpdate(3, 250));  // Owned by worker 0.
  EXPECT_FALSE(engine.ApplyThresholdUpdate(-1, 250));
  EXPECT_FALSE(engine.ApplyThresholdUpdate(8, 250));  // Out of fabric.
}

// Drives one engine over a real ThreadTransport: 7 sites on 2 workers, the
// engine is worker 1 (sites 1, 3, 5 in slots 0, 1, 2), each site's trace
// column holds one value per epoch.
struct EngineRig {
  std::unique_ptr<ThreadTransport> transport;
  std::unique_ptr<SiteEngine> engine;
  Status status;
  std::thread thread;

  EngineRig() {
    auto t = ThreadTransport::Create(7, 2);
    EXPECT_TRUE(t.ok());
    transport = std::move(*t);
    SiteEngine::Config cfg;
    cfg.worker = 1;
    cfg.num_workers = 2;
    cfg.num_sites = 7;
    cfg.thresholds = {100, 100, 100};
    cfg.series = {{10, 150}, {200, 20}, {300, 400}};
    engine = std::make_unique<SiteEngine>(std::move(cfg));
    thread = std::thread([this] { status = engine->RunVirtual(transport.get()); });
  }
  ~EngineRig() {
    transport->Shutdown();
    if (thread.joinable()) {
      thread.join();
    }
  }
  void Send(ActorMsgKind kind, int to, int64_t epoch, int64_t value = 0) {
    ActorMessage msg;
    msg.kind = kind;
    msg.epoch = epoch;
    msg.value = value;
    std::vector<Envelope> one = {Envelope{kCoordinatorId, to, msg}};
    ASSERT_TRUE(transport->SendBatch(&one));
  }
  /// Replies until the first kEpochDone (inclusive) or `count` envelopes.
  std::vector<Envelope> Collect(size_t count) {
    std::vector<Envelope> got;
    while (got.size() < count) {
      if (transport->RecvShardAll(0, &got) == 0) {
        break;
      }
    }
    return got;
  }
};

TEST(SiteEngineTest, RangeCommandStepsItsSlotsAndReportsOnlyAlarms) {
  EngineRig rig;
  // Epoch 0 over [3, 7): sites 3 (200) and 5 (300) breach 100; site 1 is
  // outside the range and is not stepped.
  rig.Send(ActorMsgKind::kEpochStart, 3, /*epoch=*/0, /*value=*/7);
  std::vector<Envelope> got = rig.Collect(3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].from, 3);
  EXPECT_EQ(got[0].msg.kind, ActorMsgKind::kEpochReport);
  EXPECT_EQ(got[0].msg.value, 200);
  EXPECT_EQ(got[1].from, 5);
  EXPECT_EQ(got[1].msg.value, 300);
  EXPECT_EQ(got[2].from, 3);
  EXPECT_EQ(got[2].msg.kind, ActorMsgKind::kEpochDone);
  EXPECT_EQ(got[2].msg.value, 7);

  // Epoch 1 over [1, 7) with site 5 down: site 1 (150) alarms, site 3 (20)
  // is quiet, site 5 (400) cannot fire while down.
  rig.Send(ActorMsgKind::kSiteDown, 5, 1);
  rig.Send(ActorMsgKind::kEpochStart, 1, 1, 7);
  got = rig.Collect(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].from, 1);
  EXPECT_EQ(got[0].msg.value, 150);
  EXPECT_EQ(got[1].msg.kind, ActorMsgKind::kEpochDone);

  // A range poll answers once per site with the latest value.
  rig.Send(ActorMsgKind::kPollRange, 1, 1, 6);
  got = rig.Collect(3);
  ASSERT_EQ(got.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(got[k].msg.kind, ActorMsgKind::kPollResponse);
    EXPECT_EQ(got[k].from, static_cast<int>(1 + 2 * k));
  }
  EXPECT_EQ(got[0].msg.value, 150);
  EXPECT_EQ(got[1].msg.value, 20);
  EXPECT_EQ(got[2].msg.value, 400);
  EXPECT_EQ(rig.engine->updates_processed(),
            (std::vector<int64_t>{1, 2, 2}));
}

TEST(SiteEngineTest, RejectsRangeCommandsItCannotExecute) {
  // Unowned start, empty range, end past the fabric: named errors.
  ActorMessage msg;
  msg.kind = ActorMsgKind::kEpochStart;
  msg.value = 7;
  Status unowned = CheckRangeCommand(Envelope{kCoordinatorId, 2, msg}, 7, 2, 1);
  EXPECT_EQ(unowned.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unowned.message().find("worker 1"), std::string::npos)
      << unowned.message();
  msg.value = 3;
  EXPECT_FALSE(CheckRangeCommand(Envelope{kCoordinatorId, 3, msg}, 7, 2, 1).ok());
  msg.value = 8;
  EXPECT_FALSE(CheckRangeCommand(Envelope{kCoordinatorId, 3, msg}, 7, 2, 1).ok());
  msg.value = 7;
  EXPECT_TRUE(CheckRangeCommand(Envelope{kCoordinatorId, 3, msg}, 7, 2, 1).ok());
  msg.kind = ActorMsgKind::kPollResponse;  // Not a range: passes.
  EXPECT_TRUE(CheckRangeCommand(Envelope{kCoordinatorId, 2, msg}, 7, 2, 1).ok());

  // The engine stops on the first bad range instead of indexing past its
  // slots; the fabric stays usable for the caller to shut down.
  for (int64_t end : {int64_t{3}, int64_t{99}}) {
    EngineRig rig;
    rig.Send(ActorMsgKind::kPollRange, 3, 0, end);
    rig.thread.join();
    EXPECT_EQ(rig.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rig.status.message().find("poll_range range [3, " +
                                        std::to_string(end) + ")"),
              std::string::npos)
        << rig.status.message();
  }
  // An epoch past the trace columns is refused the same way.
  EngineRig rig;
  rig.Send(ActorMsgKind::kEpochStart, 1, /*epoch=*/2, 7);
  rig.thread.join();
  EXPECT_EQ(rig.status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dcv
