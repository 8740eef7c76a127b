#include "runtime/socket_transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dcv {
namespace {

SocketTransport::Options FastOptions() {
  SocketTransport::Options options;
  options.accept_timeout_ms = 5000;
  options.connect_timeout_ms = 1000;
  options.connect_attempts = 3;
  options.connect_backoff_ms = 10;
  options.io_timeout_ms = 5000;
  return options;
}

Envelope ToSite(int site, ActorMsgKind kind, int64_t epoch, int64_t value) {
  Envelope e;
  e.from = kCoordinatorId;
  e.to = site;
  e.msg.kind = kind;
  e.msg.epoch = epoch;
  e.msg.value = value;
  return e;
}

Envelope ToCoordinator(int site, ActorMsgKind kind, int64_t epoch,
                       int64_t value) {
  Envelope e;
  e.from = site;
  e.to = kCoordinatorId;
  e.msg.kind = kind;
  e.msg.epoch = epoch;
  e.msg.value = value;
  return e;
}

/// A lone envelope is a 1-element batch.
bool SendOne(SocketTransport* t, const Envelope& e) {
  std::vector<Envelope> batch = {e};
  return t->SendBatch(&batch);
}

/// Drains the coordinator's shard-0 inbox until `count` envelopes arrived
/// or it closed.
std::vector<Envelope> RecvCoordinatorN(SocketTransport* t, size_t count) {
  std::vector<Envelope> got;
  while (got.size() < count && t->RecvShardAll(0, &got) > 0) {
  }
  return got;
}

/// Drains worker `w`'s inbox until `count` envelopes arrived or it closed.
std::vector<Envelope> RecvWorkerN(SocketTransport* t, int w, size_t count) {
  std::vector<Envelope> got;
  while (got.size() < count && t->RecvWorkerAll(w, &got) > 0) {
  }
  return got;
}

/// Connects `num_workers` worker transports to `coordinator` on loopback
/// (each from its own thread, since AcceptWorkers blocks the caller).
std::vector<std::unique_ptr<SocketTransport>> ConnectWorkers(
    SocketTransport* coordinator, int num_sites, int num_workers) {
  std::vector<std::unique_ptr<SocketTransport>> workers(
      static_cast<size_t>(num_workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < num_workers; ++w) {
    threads.emplace_back([&workers, coordinator, num_sites, num_workers, w] {
      auto t = SocketTransport::Connect("127.0.0.1", coordinator->port(), w,
                                        num_sites, num_workers, FastOptions());
      if (t.ok()) {
        workers[static_cast<size_t>(w)] = std::move(*t);
      }
    });
  }
  EXPECT_TRUE(coordinator->AcceptWorkers().ok());
  for (std::thread& t : threads) {
    t.join();
  }
  return workers;
}

TEST(SocketTransportTest, RoutesEnvelopesBothWays) {
  auto listen = SocketTransport::Listen(/*num_sites=*/4, /*num_workers=*/2,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);
  ASSERT_GT(coordinator->port(), 0);
  auto workers = ConnectWorkers(coordinator.get(), 4, 2);
  ASSERT_TRUE(workers[0] != nullptr && workers[1] != nullptr);

  // Coordinator -> sites: worker w owns sites {w, w+2}.
  for (int site = 0; site < 4; ++site) {
    ASSERT_TRUE(SendOne(
        coordinator.get(),
        ToSite(site, ActorMsgKind::kThresholdUpdate, 0, 100 + site)));
  }
  for (int w = 0; w < 2; ++w) {
    std::set<int> seen;
    const std::vector<Envelope> got =
        RecvWorkerN(workers[static_cast<size_t>(w)].get(), w, 2);
    ASSERT_EQ(got.size(), 2u);
    for (const Envelope& e : got) {
      EXPECT_EQ(e.msg.kind, ActorMsgKind::kThresholdUpdate);
      EXPECT_EQ(e.msg.value, 100 + e.to);
      seen.insert(e.to);
    }
    EXPECT_EQ(seen, (std::set<int>{w, w + 2}));
  }

  // Sites -> coordinator.
  for (int w = 0; w < 2; ++w) {
    ASSERT_TRUE(SendOne(workers[static_cast<size_t>(w)].get(),
                        ToCoordinator(w, ActorMsgKind::kAlarm, 5, 999)));
  }
  std::set<int> froms;
  const std::vector<Envelope> got = RecvCoordinatorN(coordinator.get(), 2);
  ASSERT_EQ(got.size(), 2u);
  for (const Envelope& e : got) {
    EXPECT_EQ(e.msg.kind, ActorMsgKind::kAlarm);
    froms.insert(e.from);
  }
  EXPECT_EQ(froms, (std::set<int>{0, 1}));

  workers[0]->Shutdown();
  workers[1]->Shutdown();
  coordinator->Shutdown();
  SocketStats stats = coordinator->stats();
  // Envelope counts are exact. Frame counts depend on writer timing: each
  // writer coalesces whatever is queued into one kEnvelopeBatch frame, so
  // the 4 outbound envelopes take 1 to 4 frames.
  EXPECT_EQ(stats.envelopes_sent, 4);
  EXPECT_EQ(stats.envelopes_received, 2);
  EXPECT_GE(stats.frames_sent, 1);
  EXPECT_LE(stats.frames_sent, 4);
  EXPECT_EQ(stats.frames_received, 2);
  EXPECT_GT(stats.bytes_sent, 0);
  EXPECT_EQ(stats.decode_errors, 0);
  EXPECT_EQ(stats.disconnects, 0);
}

TEST(SocketTransportTest, SendBatchTakesTheBatchAndRejectsUnroutable) {
  auto listen = SocketTransport::Listen(/*num_sites=*/4, /*num_workers=*/2,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 4, 2);
  ASSERT_TRUE(workers[0] != nullptr && workers[1] != nullptr);

  // An unroutable envelope rejects the whole batch: nothing is sent.
  std::vector<Envelope> batch = {
      ToSite(0, ActorMsgKind::kPollRequest, 1, 0),
      ToSite(4, ActorMsgKind::kPollRequest, 1, 0)};
  EXPECT_FALSE(coordinator->SendBatch(&batch));
  EXPECT_TRUE(batch.empty());
  std::vector<Envelope> to_site = {
      ToCoordinator(0, ActorMsgKind::kAlarm, 1, 5),
      ToSite(1, ActorMsgKind::kAlarm, 1, 5)};
  EXPECT_FALSE(workers[0]->SendBatch(&to_site));
  EXPECT_TRUE(to_site.empty());

  // Routable batches are taken whole and arrive in order per connection.
  for (int site = 0; site < 4; ++site) {
    batch.push_back(ToSite(site, ActorMsgKind::kPollRequest, 2, 10 + site));
  }
  ASSERT_TRUE(coordinator->SendBatch(&batch));
  EXPECT_TRUE(batch.empty());
  for (int w = 0; w < 2; ++w) {
    const std::vector<Envelope> got =
        RecvWorkerN(workers[static_cast<size_t>(w)].get(), w, 2);
    ASSERT_EQ(got.size(), 2u);
    for (int k = 0; k < 2; ++k) {
      const Envelope& e = got[static_cast<size_t>(k)];
      EXPECT_EQ(e.msg.epoch, 2);  // The rejected epoch-1 batch never came.
      EXPECT_EQ(e.to, w + 2 * k);
      EXPECT_EQ(e.msg.value, 10 + e.to);
    }
  }
  to_site = {ToCoordinator(0, ActorMsgKind::kPollResponse, 2, 7),
             ToCoordinator(2, ActorMsgKind::kPollResponse, 2, 8)};
  ASSERT_TRUE(workers[0]->SendBatch(&to_site));
  EXPECT_TRUE(to_site.empty());
  const std::vector<Envelope> got = RecvCoordinatorN(coordinator.get(), 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].from, 0);
  EXPECT_EQ(got[0].msg.value, 7);
  EXPECT_EQ(got[1].from, 2);
  EXPECT_EQ(got[1].msg.value, 8);

  workers[0]->Shutdown();
  workers[1]->Shutdown();
  coordinator->Shutdown();
  EXPECT_EQ(coordinator->stats().envelopes_sent, 4);
  EXPECT_EQ(coordinator->stats().envelopes_received, 2);
}

TEST(SocketTransportTest, PreservesPerSenderOrderUnderLoad) {
  // Many more frames than any queue capacity: exercises the writer's
  // batching and the bounded boxes without losing or reordering anything.
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 1, 1);
  ASSERT_TRUE(workers[0] != nullptr);

  constexpr int kFrames = 500;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(SendOne(coordinator.get(),
                          ToSite(0, ActorMsgKind::kPollRequest, i, 2 * i)));
    }
  });
  const std::vector<Envelope> got = RecvWorkerN(workers[0].get(), 0, kFrames);
  ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].msg.epoch, i);
    EXPECT_EQ(got[static_cast<size_t>(i)].msg.value, 2 * i);
  }
  producer.join();
  workers[0]->Shutdown();
  coordinator->Shutdown();
}

TEST(SocketTransportTest, ShutdownFlushesQueuedFrames) {
  // Frames queued before Shutdown must still reach the peer: the writers
  // drain their boxes before the sockets half-close (a graceful kShutdown
  // broadcast is never lost).
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 1, 1);
  ASSERT_TRUE(workers[0] != nullptr);

  ASSERT_TRUE(
      SendOne(coordinator.get(), ToSite(0, ActorMsgKind::kShutdown, 9, 0)));
  coordinator->Shutdown();

  std::vector<Envelope> got;
  ASSERT_EQ(workers[0]->RecvWorkerAll(0, &got), 1u);
  EXPECT_EQ(got[0].msg.kind, ActorMsgKind::kShutdown);
  EXPECT_EQ(got[0].msg.epoch, 9);
  // After the flush the stream ends cleanly: drained inbox reports closed.
  EXPECT_EQ(workers[0]->RecvWorkerAll(0, &got), 0u);
  workers[0]->Shutdown();
  EXPECT_EQ(workers[0]->stats().disconnects, 0);
}

TEST(SocketTransportTest, SendAfterPeerShutdownReportsClosed) {
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, FastOptions());
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);
  auto workers = ConnectWorkers(coordinator.get(), 1, 1);
  ASSERT_TRUE(workers[0] != nullptr);

  coordinator->Shutdown();
  Envelope e;
  // The worker's inbox closes once the coordinator's stream ends.
  EXPECT_FALSE(workers[0]->RecvWorker(0, &e));
  workers[0]->Shutdown();
  EXPECT_FALSE(SendOne(workers[0].get(),
                      ToCoordinator(0, ActorMsgKind::kAlarm, 0, 0)));
}

TEST(SocketTransportTest, ConnectRetriesAreBoundedAndCounted) {
  SocketTransport::Options options = FastOptions();
  options.connect_attempts = 2;
  // Nothing listens on this port of the test's own ephemeral coordinator
  // after it is closed; use a fresh unlikely port instead.
  auto worker = SocketTransport::Connect("127.0.0.1", 1, /*worker=*/0,
                                         /*num_sites=*/1, /*num_workers=*/1,
                                         options);
  ASSERT_FALSE(worker.ok());
  EXPECT_NE(worker.status().message().find("after 2 attempts"),
            std::string::npos)
      << worker.status().message();
}

TEST(SocketTransportTest, AcceptTimesOutWhenWorkersMissing) {
  SocketTransport::Options options = FastOptions();
  options.accept_timeout_ms = 50;
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/2,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok());
  Status s = (*listen)->AcceptWorkers();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("timed out waiting for worker"),
            std::string::npos)
      << s.message();
  EXPECT_EQ((*listen)->stats().accept_timeouts, 1);
}

TEST(SocketTransportTest, RejectsShapeMismatchAndAdvertisesMode) {
  SocketTransport::Options options = FastOptions();
  options.virtual_time = false;
  auto listen = SocketTransport::Listen(/*num_sites=*/2, /*num_workers=*/1,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok());
  auto coordinator = std::move(*listen);

  // Wrong shape first: the coordinator rejects and AcceptWorkers fails.
  Result<std::unique_ptr<SocketTransport>> bad = InternalError("unset");
  std::thread t([&bad, &coordinator] {
    bad = SocketTransport::Connect("127.0.0.1", coordinator->port(),
                                   /*worker=*/0, /*num_sites=*/3,
                                   /*num_workers=*/1, FastOptions());
  });
  Status accept = coordinator->AcceptWorkers();
  t.join();
  EXPECT_FALSE(accept.ok());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("rejected"), std::string::npos)
      << bad.status().message();

  // A matching worker on a fresh coordinator adopts its advertised mode.
  auto relisten = SocketTransport::Listen(2, 1, 0, options);
  ASSERT_TRUE(relisten.ok());
  auto workers = ConnectWorkers(relisten->get(), 2, 1);
  ASSERT_TRUE(workers[0] != nullptr);
  EXPECT_FALSE(workers[0]->virtual_time());
  workers[0]->Shutdown();
  (*relisten)->Shutdown();
}

TEST(SocketTransportTest, ConnectRetryExhaustionReturnsWithinDeadline) {
  // Regression: a worker dialing a dead port must burn through its bounded
  // retry budget and return a clean error well inside the configured
  // deadline — never hang in connect() or sleep forever in backoff.
  SocketTransport::Options options = FastOptions();
  options.connect_attempts = 3;
  options.connect_timeout_ms = 500;
  options.connect_backoff_ms = 10;
  const auto t0 = std::chrono::steady_clock::now();
  // Port 1 on loopback: nothing listens there, connect() is refused fast.
  auto worker = SocketTransport::Connect("127.0.0.1", 1, /*worker=*/0,
                                         /*num_sites=*/1, /*num_workers=*/1,
                                         options);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(worker.ok());
  EXPECT_NE(worker.status().message().find("after 3 attempts"),
            std::string::npos)
      << worker.status().message();
  // Worst case: 3 * connect_timeout + 10 + 20 ms of backoff = 1.53 s.
  // A generous 4 s bound still catches an unbounded hang.
  EXPECT_LT(elapsed, std::chrono::seconds(4));
}

TEST(SocketTransportTest, ReconnectsAndReplaysAfterSeveredLink) {
  // Kill the TCP link mid-run: with allow_reconnect on both sides the
  // worker redials, the resume handshake fences the old connection, and
  // both directions replay whatever the peer missed — nothing is lost and
  // nothing is delivered twice.
  SocketTransport::Options options = FastOptions();
  options.allow_reconnect = true;
  options.reconnect_window_ms = 5000;
  options.reconnect_grace_ms = 20;
  auto listen = SocketTransport::Listen(/*num_sites=*/1, /*num_workers=*/1,
                                        /*port=*/0, options);
  ASSERT_TRUE(listen.ok()) << listen.status().message();
  auto coordinator = std::move(*listen);

  std::unique_ptr<SocketTransport> worker;
  std::thread dial([&] {
    auto t = SocketTransport::Connect("127.0.0.1", coordinator->port(),
                                      /*worker=*/0, /*num_sites=*/1,
                                      /*num_workers=*/1, options);
    if (t.ok()) {
      worker = std::move(*t);
    }
  });
  ASSERT_TRUE(coordinator->AcceptWorkers().ok());
  dial.join();
  ASSERT_TRUE(worker != nullptr);

  // Sanity: one round trip on the healthy link.
  ASSERT_TRUE(SendOne(coordinator.get(),
                      ToSite(0, ActorMsgKind::kThresholdUpdate, 0, 50)));
  std::vector<Envelope> got = RecvWorkerN(worker.get(), 0, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].msg.value, 50);

  ASSERT_TRUE(coordinator->InjectPeerFailure(0).ok());

  // Both directions keep sending through the outage; the bounded send
  // queues absorb the burst and the resume replays the rest.
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(SendOne(coordinator.get(),
                        ToSite(0, ActorMsgKind::kPollRequest, i, 10 + i)));
    ASSERT_TRUE(SendOne(worker.get(),
                        ToCoordinator(0, ActorMsgKind::kAlarm, i, 20 + i)));
  }
  got = RecvWorkerN(worker.get(), 0, kFrames);
  ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const Envelope& e = got[static_cast<size_t>(i)];
    EXPECT_EQ(e.msg.epoch, i) << "frame " << i;
    EXPECT_EQ(e.msg.value, 10 + i);
  }
  got = RecvCoordinatorN(coordinator.get(), kFrames);
  ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const Envelope& e = got[static_cast<size_t>(i)];
    EXPECT_EQ(e.msg.epoch, i) << "frame " << i;
    EXPECT_EQ(e.msg.value, 20 + i);
  }

  worker->Shutdown();
  coordinator->Shutdown();
  SocketStats cstats = coordinator->stats();
  EXPECT_GE(cstats.disconnects, 1);
  EXPECT_EQ(cstats.reconnects, 1);
  // The dedup layer keeps duplicates off the inboxes; the counter just
  // records how many the replay produced (bounded by the ring).
  EXPECT_LE(cstats.duplicate_frames,
            static_cast<int64_t>(options.replay_capacity));
  EXPECT_EQ(worker->stats().reconnects, 1);
}

TEST(SocketTransportTest, ValidatesArguments) {
  EXPECT_FALSE(SocketTransport::Listen(0, 1, 0, FastOptions()).ok());
  EXPECT_FALSE(SocketTransport::Listen(2, 3, 0, FastOptions()).ok());
  EXPECT_FALSE(SocketTransport::Listen(2, 1, 70000, FastOptions()).ok());
  EXPECT_FALSE(
      SocketTransport::Connect("not-an-ip", 80, 0, 1, 1, FastOptions()).ok());
  EXPECT_FALSE(
      SocketTransport::Connect("127.0.0.1", 80, 5, 4, 2, FastOptions()).ok());
}

}  // namespace
}  // namespace dcv
