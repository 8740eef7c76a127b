#include "runtime/mailbox.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

namespace dcv {
namespace {

TEST(MailboxTest, FifoWithinCapacity) {
  Mailbox<int> box(4);
  EXPECT_EQ(box.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(box.TryPush(i), MailboxPush::kOk);
  }
  EXPECT_EQ(box.TryPush(99), MailboxPush::kFull);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(box.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(box.TryPop(&v));
}

TEST(MailboxTest, PopAllForDistinguishesTimeoutFromClosure) {
  Mailbox<int> box(4);
  std::vector<int> out;
  bool timed_out = false;

  // Open and empty: the deadline expires with timed_out set.
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/20, &timed_out), 0u);
  EXPECT_TRUE(timed_out);

  // Messages arriving before the deadline are delivered without it.
  ASSERT_TRUE(box.Push(7));
  out.clear();
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/1000, &timed_out), 1u);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(out, std::vector<int>{7});

  // Closed and drained: 0 without the timeout flag — end of stream, not a
  // dead producer.
  box.Close();
  out.clear();
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/1000, &timed_out), 0u);
  EXPECT_FALSE(timed_out);
}

TEST(MailboxTest, PopAllForWakesOnLatePush) {
  Mailbox<int> box(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(box.Push(42));
  });
  std::vector<int> out;
  bool timed_out = true;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(box.PopAllFor(&out, /*timeout_ms=*/5000, &timed_out), 1u);
  EXPECT_FALSE(timed_out);
  // The wait ended on the push, not the 5 s deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(4));
  producer.join();
}

TEST(MailboxTest, BoundedPushBlocksUntilConsumerDrains) {
  Mailbox<int> box(1);
  ASSERT_TRUE(box.Push(0));
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    // Full box: this Push must block until the consumer pops.
    ASSERT_TRUE(box.Push(1));
    second_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_accepted.load());

  int v = -1;
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 0);
  producer.join();
  EXPECT_TRUE(second_accepted.load());
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 1);
}

TEST(MailboxTest, CloseWakesBlockedProducer) {
  Mailbox<int> box(1);
  ASSERT_TRUE(box.Push(0));
  std::thread producer([&] {
    // Blocked on a full box; Close must wake it with a rejection.
    EXPECT_FALSE(box.Push(1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  producer.join();
  EXPECT_EQ(box.TryPush(2), MailboxPush::kClosed);
}

TEST(MailboxTest, CloseWakesBlockedConsumer) {
  Mailbox<int> box(1);
  std::thread consumer([&] {
    int v = 0;
    // Blocked on an empty box; Close must wake it with end-of-stream.
    EXPECT_FALSE(box.Pop(&v));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  consumer.join();
}

TEST(MailboxTest, DrainOnShutdown) {
  Mailbox<int> box(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.Push(i));
  }
  box.Close();
  box.Close();  // Idempotent.
  EXPECT_TRUE(box.closed());
  // Accepted messages survive the close and drain in order...
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.Pop(&v));
    EXPECT_EQ(v, i);
  }
  // ...and only then does Pop report end-of-stream.
  EXPECT_FALSE(box.Pop(&v));
}

TEST(MailboxTest, MultiProducerPerProducerOrdering) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Mailbox<std::pair<int, int>> box(16);  // Small: forces backpressure.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.Push({p, i}));
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  std::pair<int, int> item;
  for (int received = 0; received < kProducers * kPerProducer; ++received) {
    ASSERT_TRUE(box.Pop(&item));
    // Interleaving across producers is arbitrary, but each producer's
    // messages must arrive in its push order.
    EXPECT_EQ(item.second, next_expected[item.first]);
    ++next_expected[item.first];
  }
  for (auto& t : producers) {
    t.join();
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

TEST(MailboxTest, ZeroCapacityClampsToOne) {
  Mailbox<int> box(0);
  EXPECT_EQ(box.capacity(), 1u);
  EXPECT_EQ(box.TryPush(1), MailboxPush::kOk);
  EXPECT_EQ(box.TryPush(2), MailboxPush::kFull);
}

TEST(MailboxTest, PopAllDrainsEverythingInFifoOrder) {
  Mailbox<int> box(8);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(box.Push(i));
  }
  std::vector<int> out;
  EXPECT_EQ(box.PopAll(&out), 6u);
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
  // The drain empties the box entirely.
  int v = -1;
  EXPECT_FALSE(box.TryPop(&v));
}

TEST(MailboxTest, PopAllAppendsWithoutClearing) {
  Mailbox<int> box(4);
  ASSERT_TRUE(box.Push(10));
  std::vector<int> out = {7};
  EXPECT_EQ(box.PopAll(&out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 10);
}

TEST(MailboxTest, PopAllBlocksUntilFirstMessage) {
  Mailbox<int> box(4);
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    std::vector<int> out;
    // Empty box: this PopAll must block until the producer pushes.
    EXPECT_EQ(box.PopAll(&out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 42);
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());
  ASSERT_TRUE(box.Push(42));
  consumer.join();
  EXPECT_TRUE(drained.load());
}

TEST(MailboxTest, PopAllWakesBlockedProducers) {
  Mailbox<int> box(2);
  ASSERT_TRUE(box.Push(0));
  ASSERT_TRUE(box.Push(1));
  std::atomic<bool> accepted{false};
  std::thread producer([&] {
    // Full box: blocked until the batch drain frees the whole capacity.
    ASSERT_TRUE(box.Push(2));
    accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(accepted.load());
  std::vector<int> out;
  EXPECT_GE(box.PopAll(&out), 2u);
  producer.join();
  EXPECT_TRUE(accepted.load());
  // Whether 2 landed in the first drain or waits for the next, nothing is
  // lost and order holds.
  while (out.size() < 3u) {
    int v = -1;
    ASSERT_TRUE(box.Pop(&v));
    out.push_back(v);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(MailboxTest, PopAllDrainsBacklogAfterCloseThenReportsEndOfStream) {
  Mailbox<int> box(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(box.Push(i));
  }
  box.Close();
  std::vector<int> out;
  // Accepted messages survive the close and drain in one batch...
  EXPECT_EQ(box.PopAll(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  // ...and only then does PopAll report end-of-stream.
  out.clear();
  EXPECT_EQ(box.PopAll(&out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(MailboxTest, CloseWakesBlockedPopAll) {
  Mailbox<int> box(4);
  std::thread consumer([&] {
    std::vector<int> out;
    // Blocked on an empty box; Close must wake it with end-of-stream.
    EXPECT_EQ(box.PopAll(&out), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  consumer.join();
}

TEST(MailboxTest, TryPopAllNeverBlocks) {
  Mailbox<int> box(4);
  std::vector<int> out;
  EXPECT_EQ(box.TryPopAll(&out), 0u);
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(box.Push(5));
  ASSERT_TRUE(box.Push(6));
  EXPECT_EQ(box.TryPopAll(&out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 6);
  box.Close();
  out.clear();
  EXPECT_EQ(box.TryPopAll(&out), 0u);
}

TEST(MailboxTest, PopAllSeesEachMultiProducerMessageExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  Mailbox<std::pair<int, int>> box(16);  // Small: forces backpressure.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.Push({p, i}));
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  std::vector<std::pair<int, int>> batch;
  int received = 0;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    size_t got = box.PopAll(&batch);
    ASSERT_GT(got, 0u);
    ASSERT_EQ(got, batch.size());
    for (const auto& [p, i] : batch) {
      // Per-producer FIFO must survive batch drains.
      EXPECT_EQ(i, next_expected[p]);
      ++next_expected[p];
    }
    received += static_cast<int>(got);
  }
  for (auto& t : producers) {
    t.join();
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

// Batched sends (the SendBatch substrate). PushAll must behave exactly like
// the equivalent sequence of Pushes — same FIFO order, same blocking, same
// drain-on-shutdown prefix semantics — just cheaper.

TEST(MailboxTest, PushAllDeliversInOrderAcrossCapacityWaves) {
  Mailbox<int> box(3);  // Batch is much larger than capacity.
  std::vector<int> items;
  for (int i = 0; i < 20; ++i) {
    items.push_back(i);
  }
  std::thread producer([&] { ASSERT_TRUE(box.PushAll(&items)); });
  int v = -1;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(box.Pop(&v));
    EXPECT_EQ(v, i);
  }
  producer.join();
}

TEST(MailboxTest, PushAllBlockedOnFullBoxWakesOnCloseWithoutLosingPrefix) {
  // The shutdown-deadlock regression: a producer mid-PushAll into a full
  // box must be woken by Close with a rejection, and the prefix it already
  // enqueued must stay poppable.
  Mailbox<int> box(2);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    std::vector<int> items = {1, 2, 3, 4, 5};
    EXPECT_FALSE(box.PushAll(&items));  // Blocks, then rejected.
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load());  // Still blocked on the full box.
  box.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // The accepted prefix (capacity's worth) drains in order.
  int v = -1;
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(box.Pop(&v));  // Closed and drained.
}

TEST(MailboxTest, TryPushAllTakesLongestPrefixAndReportsClosure) {
  Mailbox<int> box(3);
  std::vector<int> items = {10, 11, 12, 13, 14};
  bool closed = true;
  // Room for 3: the prefix lands, the caller's cursor advances by 3.
  EXPECT_EQ(box.TryPushAll(&items, 0, &closed), 3u);
  EXPECT_FALSE(closed);
  // Full now: transient 0, not closure — the caller should retry later.
  EXPECT_EQ(box.TryPushAll(&items, 3, &closed), 0u);
  EXPECT_FALSE(closed);
  int v = -1;
  ASSERT_TRUE(box.Pop(&v));
  EXPECT_EQ(v, 10);
  EXPECT_EQ(box.TryPushAll(&items, 3, &closed), 1u);
  EXPECT_FALSE(closed);
  // Closed: permanent 0 with the flag set — the caller should stop.
  box.Close();
  EXPECT_EQ(box.TryPushAll(&items, 4, &closed), 0u);
  EXPECT_TRUE(closed);
  // Everything accepted before the close is still there, in order.
  std::vector<int> out;
  EXPECT_EQ(box.TryPopAll(&out), 3u);
  EXPECT_EQ(out, (std::vector<int>{11, 12, 13}));
}


// Ownership contract of the segment store: large batches cross by move,
// everything else by small segments, and drained buffers are recycled.

// Enough ints to clear the whole-batch threshold (kWholeBatchBytes).
constexpr int kWholeBatch = 1 << 17;

std::vector<int> Iota(int first, int count) {
  std::vector<int> v;
  v.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    v.push_back(first + i);
  }
  return v;
}

TEST(MailboxTest, WholeBatchCrossesByMoveAndDrainsBySwap) {
  Mailbox<int> box(4 * kWholeBatch);
  std::vector<int> items = Iota(0, kWholeBatch);
  const int* buffer = items.data();
  ASSERT_TRUE(box.PushAll(&items));
  EXPECT_TRUE(items.empty());
  EXPECT_EQ(box.size(), static_cast<size_t>(kWholeBatch));

  // PopAll into an empty vector hands over the producer's own buffer.
  std::vector<int> out;
  EXPECT_EQ(box.PopAll(&out), static_cast<size_t>(kWholeBatch));
  EXPECT_EQ(out.data(), buffer);
  EXPECT_EQ(out, Iota(0, kWholeBatch));
}

TEST(MailboxTest, DrainedBuffersGoBackToTheNextProducer) {
  Mailbox<int> box(4 * kWholeBatch);
  std::vector<int> out;
  out.reserve(2 * kWholeBatch);  // The consumer's buffer, swapped in below.
  const int* consumer_buffer = out.data();

  std::vector<int> items = Iota(0, kWholeBatch);
  ASSERT_TRUE(box.PushAll(&items));
  out.clear();
  ASSERT_EQ(box.PopAll(&out), static_cast<size_t>(kWholeBatch));

  // The next whole batch returns the consumer's old buffer to the producer:
  // a steady producer/consumer pair allocates nothing after the first burst.
  std::vector<int> next = Iota(kWholeBatch, kWholeBatch);
  ASSERT_TRUE(box.PushAll(&next));
  EXPECT_TRUE(next.empty());
  EXPECT_EQ(next.data(), consumer_buffer);
  EXPECT_GE(next.capacity(), static_cast<size_t>(2 * kWholeBatch));
}

TEST(MailboxTest, SmallBatchIsCopiedAndTheCallerKeepsItsBuffer) {
  Mailbox<int> box(64);
  std::vector<int> items = {1, 2, 3};
  const size_t capacity = items.capacity();
  ASSERT_TRUE(box.PushAll(&items));
  EXPECT_TRUE(items.empty());
  EXPECT_EQ(items.capacity(), capacity);
  std::vector<int> out;
  EXPECT_EQ(box.PopAll(&out), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(MailboxTest, FifoAcrossSinglesWholeBatchesAndCapacityWaves) {
  // Capacity for one whole batch plus a little: the second whole-sized
  // batch no longer fits and goes in waves as the consumer drains.
  Mailbox<int> box(kWholeBatch + 100);
  std::thread producer([&] {
    int next = 0;
    for (int i = 0; i < 70; ++i) {  // More than one small segment.
      ASSERT_TRUE(box.Push(next++));
    }
    std::vector<int> whole = Iota(next, kWholeBatch);
    next += kWholeBatch;
    ASSERT_TRUE(box.PushAll(&whole));
    ASSERT_TRUE(box.Push(next++));
    std::vector<int> waves = Iota(next, kWholeBatch);
    next += kWholeBatch;
    ASSERT_TRUE(box.PushAll(&waves));
    std::vector<int> small = Iota(next, 5);
    ASSERT_TRUE(box.PushAll(&small));
  });
  const int total = 70 + kWholeBatch + 1 + kWholeBatch + 5;
  int expected = 0;
  std::vector<int> out;
  int v = -1;
  while (expected < total) {
    // Alternate single pops and batch drains.
    if (expected % 3 == 0) {
      ASSERT_TRUE(box.Pop(&v));
      ASSERT_EQ(v, expected);
      ++expected;
      continue;
    }
    out.clear();
    ASSERT_GT(box.PopAll(&out), 0u);
    for (int got : out) {
      ASSERT_EQ(got, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTest, CloseMidWholeSizedBatchKeepsTheAcceptedPrefix) {
  // A whole-sized batch that does not fit goes in waves; Close between
  // waves rejects the rest, and what was accepted stays poppable in order.
  Mailbox<int> box(kWholeBatch / 2);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    std::vector<int> items = Iota(0, kWholeBatch);
    EXPECT_FALSE(box.PushAll(&items));
    EXPECT_TRUE(items.empty());
    returned.store(true);
  });
  while (box.size() < box.capacity()) {
    std::this_thread::yield();
  }
  box.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  std::vector<int> out;
  EXPECT_EQ(box.PopAll(&out), static_cast<size_t>(kWholeBatch / 2));
  EXPECT_EQ(out, Iota(0, kWholeBatch / 2));
  out.clear();
  EXPECT_EQ(box.PopAll(&out), 0u);  // Closed and drained.
}

TEST(MailboxTest, TryPushAllAndSizeCountAcrossSegments) {
  Mailbox<int> box(kWholeBatch + 200);
  std::vector<int> whole = Iota(0, kWholeBatch);
  ASSERT_TRUE(box.PushAll(&whole));
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(box.TryPush(kWholeBatch + i), MailboxPush::kOk);
  }
  EXPECT_EQ(box.size(), static_cast<size_t>(kWholeBatch + 60));

  // 140 slots left: the longest prefix that fits lands, spanning segments.
  std::vector<int> tail = Iota(kWholeBatch + 60, 300);
  bool closed = true;
  EXPECT_EQ(box.TryPushAll(&tail, 0, &closed), 140u);
  EXPECT_FALSE(closed);
  EXPECT_EQ(box.size(), box.capacity());
  EXPECT_EQ(box.TryPushAll(&tail, 140, &closed), 0u);
  EXPECT_FALSE(closed);

  int v = -1;
  ASSERT_TRUE(box.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_EQ(box.size(), box.capacity() - 1);
  std::vector<int> out;
  EXPECT_EQ(box.TryPopAll(&out), box.capacity() - 1);
  EXPECT_EQ(out, Iota(1, kWholeBatch + 199));
  EXPECT_EQ(box.size(), 0u);
}

}  // namespace
}  // namespace dcv
