#include "sim/channel.h"

#include <gtest/gtest.h>

#include <vector>

namespace dcv {
namespace {

Channel MakeChannel(FaultSpec spec, int num_sites, MessageCounter* counter) {
  Channel ch(std::move(spec));
  EXPECT_TRUE(ch.Init(num_sites, counter).ok());
  return ch;
}

TEST(FaultSpecTest, DefaultIsPerfect) {
  FaultSpec spec;
  EXPECT_FALSE(spec.any_faults());
  EXPECT_TRUE(spec.Validate(3).ok());
  Channel ch(spec);
  MessageCounter counter;
  ASSERT_TRUE(ch.Init(3, &counter).ok());
  EXPECT_TRUE(ch.perfect());
}

TEST(FaultSpecTest, ValidateRejectsBadProbabilities) {
  FaultSpec spec;
  spec.loss = 1.5;
  EXPECT_FALSE(spec.Validate(1).ok());
  spec = FaultSpec{};
  spec.duplicate = -0.1;
  EXPECT_FALSE(spec.Validate(1).ok());
  spec = FaultSpec{};
  spec.delay = 2.0;
  EXPECT_FALSE(spec.Validate(1).ok());
  spec = FaultSpec{};
  spec.per_site_loss = {0.5, 1.5};
  EXPECT_FALSE(spec.Validate(2).ok());
}

TEST(FaultSpecTest, ValidateRejectsBadStructure) {
  FaultSpec spec;
  spec.max_delay_epochs = 0;
  EXPECT_FALSE(spec.Validate(1).ok());
  spec = FaultSpec{};
  spec.per_site_loss = {0.1};  // Two sites need two entries.
  EXPECT_FALSE(spec.Validate(2).ok());
  spec = FaultSpec{};
  spec.crashes = {CrashWindow{5, 0, 10}};  // Site out of range.
  EXPECT_FALSE(spec.Validate(2).ok());
  spec = FaultSpec{};
  spec.crashes = {CrashWindow{0, 10, 10}};  // Empty window.
  EXPECT_FALSE(spec.Validate(2).ok());
  spec = FaultSpec{};
  spec.partitions = {EpochWindow{7, 3}};
  EXPECT_FALSE(spec.Validate(2).ok());
  spec = FaultSpec{};
  spec.retry.max_attempts = 0;
  EXPECT_FALSE(spec.Validate(2).ok());
  spec = FaultSpec{};
  spec.retry.backoff_base_ticks = -1;
  EXPECT_FALSE(spec.Validate(2).ok());
}

TEST(ChannelTest, PerfectChannelChargesExactly) {
  MessageCounter counter;
  Channel ch = MakeChannel(FaultSpec{}, 3, &counter);
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/true),
            SendStatus::kDelivered);
  EXPECT_EQ(counter.of(MessageType::kAlarm), 1);
  EXPECT_EQ(counter.of(MessageType::kAck), 0);  // Acks are off by default.

  PollOutcome poll =
      ch.PollSites({1, 2, 3}, std::vector<int64_t>{1, 1, 1}, {});
  EXPECT_EQ(counter.of(MessageType::kPollRequest), 3);
  EXPECT_EQ(counter.of(MessageType::kPollResponse), 3);
  EXPECT_EQ(poll.weighted_sum, 6);
  EXPECT_EQ(poll.responses, 3);
  EXPECT_EQ(poll.timeouts, 0);
  EXPECT_FALSE(poll.degraded);
  EXPECT_EQ(ch.stats().transmissions, 7);
  EXPECT_EQ(ch.stats().delivered, 7);
  EXPECT_EQ(ch.stats().dropped, 0);
}

TEST(ChannelTest, TotalLossDropsUnreliableSends) {
  FaultSpec spec;
  spec.loss = 1.0;
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 1, &counter);
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/false),
            SendStatus::kLost);
  EXPECT_EQ(counter.of(MessageType::kAlarm), 1);  // The wire copy is charged.
  EXPECT_EQ(ch.stats().dropped, 1);
  EXPECT_EQ(ch.stats().delivered, 0);
}

TEST(ChannelTest, ReliableSendExhaustsRetriesUnderTotalLoss) {
  FaultSpec spec;
  spec.loss = 1.0;
  spec.retry.enable_acks = true;
  spec.retry.max_attempts = 4;
  spec.retry.backoff_base_ticks = 1;
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 1, &counter);
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/true),
            SendStatus::kLost);
  EXPECT_EQ(counter.of(MessageType::kAlarm), 4);  // All four attempts.
  EXPECT_EQ(counter.of(MessageType::kAck), 0);    // Nothing ever arrived.
  EXPECT_EQ(ch.stats().retransmissions, 3);
  EXPECT_EQ(ch.stats().backoff_ticks, 1 + 2 + 4);  // Exponential backoff.
  EXPECT_EQ(ch.stats().give_ups, 1);
}

TEST(ChannelTest, ReliableSendAcksOnCleanLink) {
  FaultSpec spec;
  spec.duplicate = 0.0;
  spec.retry.enable_acks = true;
  // Make the channel non-perfect without any real loss so the ack path runs.
  spec.crashes = {CrashWindow{0, 100, 101}};
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 1, &counter);
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/true),
            SendStatus::kDelivered);
  EXPECT_EQ(counter.of(MessageType::kAlarm), 1);
  EXPECT_EQ(counter.of(MessageType::kAck), 1);
  EXPECT_EQ(ch.stats().acks, 1);
  EXPECT_EQ(ch.stats().retransmissions, 0);
}

TEST(ChannelTest, DuplicateChargesAnExtraCopy) {
  FaultSpec spec;
  spec.duplicate = 1.0;
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 1, &counter);
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/false),
            SendStatus::kDelivered);
  EXPECT_EQ(counter.of(MessageType::kAlarm), 2);
  EXPECT_EQ(ch.stats().duplicates, 1);
  EXPECT_EQ(ch.stats().delivered, 1);  // Receivers deduplicate.
}

TEST(ChannelTest, DelayedMessageArrivesNextEpochWithPayload) {
  FaultSpec spec;
  spec.delay = 1.0;
  spec.max_delay_epochs = 1;
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 2, &counter);
  EXPECT_EQ(ch.SendFromSite(1, MessageType::kAlarm, /*reliable=*/false, 42),
            SendStatus::kDelayed);
  EXPECT_TRUE(ch.TakeArrivals(MessageType::kAlarm).empty());

  ch.BeginEpoch(1);
  std::vector<Channel::Arrival> arrivals =
      ch.TakeArrivals(MessageType::kAlarm);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].site, 1);
  EXPECT_EQ(arrivals[0].payload, 42);
  EXPECT_EQ(arrivals[0].sent_epoch, 0);
  EXPECT_EQ(ch.stats().late_deliveries, 1);
  EXPECT_EQ(ch.stats().delivery_delay_epochs, 1);
  // A second take finds nothing: arrivals are consumed.
  EXPECT_TRUE(ch.TakeArrivals(MessageType::kAlarm).empty());
}

TEST(ChannelTest, CrashWindowSuppressesAndRecovers) {
  FaultSpec spec;
  spec.crashes = {CrashWindow{0, 0, 2}};
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 2, &counter);
  EXPECT_FALSE(ch.SiteUp(0));
  EXPECT_TRUE(ch.SiteUp(1));

  // The crashed site cannot send; nothing reaches the wire.
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/true),
            SendStatus::kSenderDown);
  EXPECT_EQ(counter.of(MessageType::kAlarm), 0);
  EXPECT_EQ(ch.stats().crashed_sends, 1);

  // Messages to it are transmitted but black-holed.
  EXPECT_EQ(ch.SendToSite(0, MessageType::kThresholdUpdate,
                          /*reliable=*/false),
            SendStatus::kLost);
  EXPECT_EQ(counter.of(MessageType::kThresholdUpdate), 1);
  EXPECT_EQ(ch.stats().blackholed, 1);

  ch.BeginEpoch(1);
  EXPECT_FALSE(ch.SiteUp(0));
  EXPECT_TRUE(ch.newly_recovered().empty());

  ch.BeginEpoch(2);
  EXPECT_TRUE(ch.SiteUp(0));
  ASSERT_EQ(ch.newly_recovered().size(), 1u);
  EXPECT_EQ(ch.newly_recovered()[0], 0);
}

TEST(ChannelTest, PartitionBlackholesCoordinatorTraffic) {
  FaultSpec spec;
  spec.partitions = {EpochWindow{0, 1}};
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 1, &counter);
  EXPECT_TRUE(ch.Partitioned());
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/false),
            SendStatus::kLost);
  EXPECT_EQ(ch.stats().blackholed, 1);
  ch.BeginEpoch(1);
  EXPECT_FALSE(ch.Partitioned());
  EXPECT_EQ(ch.SendFromSite(0, MessageType::kAlarm, /*reliable=*/false),
            SendStatus::kDelivered);
}

TEST(ChannelTest, PollDegradesToLastKnownValue) {
  FaultSpec spec;
  spec.crashes = {CrashWindow{1, 0, 10}};
  spec.degrade = DegradeMode::kLastKnown;
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 2, &counter);
  ch.RecordLastKnown(1, 77);
  PollOutcome poll = ch.PollSites({5, 9}, std::vector<int64_t>{1, 1},
                                 std::vector<int64_t>{100, 100});
  EXPECT_EQ(poll.values[0], 5);    // Responded with the truth.
  EXPECT_EQ(poll.values[1], 77);   // Crashed: last-known substitute.
  EXPECT_EQ(poll.weighted_sum, 82);
  EXPECT_EQ(poll.timeouts, 1);
  EXPECT_TRUE(poll.degraded);
  EXPECT_EQ(ch.stats().timed_out_polls, 1);
  EXPECT_EQ(ch.stats().degraded_decisions, 1);
}

TEST(ChannelTest, PollDegradesToPessimisticValue) {
  FaultSpec spec;
  spec.crashes = {CrashWindow{1, 0, 10}};
  spec.degrade = DegradeMode::kAssumeBreach;
  MessageCounter counter;
  Channel ch = MakeChannel(spec, 2, &counter);
  ch.RecordLastKnown(1, 77);  // Ignored under assume-breach.
  PollOutcome poll = ch.PollSites({5, 9}, std::vector<int64_t>{1, 1},
                                 std::vector<int64_t>{100, 100});
  EXPECT_EQ(poll.values[1], 100);
  EXPECT_EQ(poll.weighted_sum, 105);

  // Without a pessimistic vector or history, the fallback is zero.
  Channel bare(spec);
  MessageCounter counter2;
  ASSERT_TRUE(bare.Init(2, &counter2).ok());
  PollOutcome poll2 =
      bare.PollSites({5, 9}, std::vector<int64_t>{1, 1}, {});
  EXPECT_EQ(poll2.values[1], 0);
}

TEST(ChannelTest, IdenticalSpecAndSeedGiveIdenticalRuns) {
  FaultSpec spec;
  spec.loss = 0.3;
  spec.duplicate = 0.1;
  spec.delay = 0.2;
  spec.max_delay_epochs = 2;
  spec.retry.enable_acks = true;
  spec.retry.max_attempts = 3;
  spec.seed = 99;

  auto drive = [&](MessageCounter* counter, ChannelStats* stats) {
    Channel ch(spec);
    ASSERT_TRUE(ch.Init(4, counter).ok());
    for (int64_t t = 0; t < 50; ++t) {
      ch.BeginEpoch(t);
      ch.TakeArrivals(MessageType::kAlarm);
      for (int i = 0; i < 4; ++i) {
        ch.SendFromSite(i, MessageType::kAlarm, /*reliable=*/true, t + i);
      }
      ch.PollSites({t, t + 1, t + 2, t + 3}, std::vector<int64_t>{1, 2, 3, 4},
                   std::vector<int64_t>{9, 9, 9, 9});
      ch.SendToSite(0, MessageType::kThresholdUpdate, /*reliable=*/true);
    }
    *stats = ch.stats();
  };

  MessageCounter c1, c2;
  ChannelStats s1, s2;
  drive(&c1, &s1);
  drive(&c2, &s2);
  for (int m = 0; m < kNumMessageTypes; ++m) {
    MessageType type = static_cast<MessageType>(m);
    EXPECT_EQ(c1.of(type), c2.of(type)) << MessageTypeName(type);
  }
  EXPECT_EQ(s1.transmissions, s2.transmissions);
  EXPECT_EQ(s1.dropped, s2.dropped);
  EXPECT_EQ(s1.duplicates, s2.duplicates);
  EXPECT_EQ(s1.delayed, s2.delayed);
  EXPECT_EQ(s1.retransmissions, s2.retransmissions);
  EXPECT_EQ(s1.acks, s2.acks);
  EXPECT_EQ(s1.timed_out_polls, s2.timed_out_polls);

  // A different seed gives a different fault pattern (overwhelmingly).
  spec.seed = 100;
  MessageCounter c3;
  ChannelStats s3;
  drive(&c3, &s3);
  EXPECT_NE(s1.dropped, s3.dropped);
}

TEST(ChannelStatsTest, DifferenceIsFieldWise) {
  ChannelStats a;
  a.transmissions = 10;
  a.retransmissions = 4;
  a.resyncs = 2;
  ChannelStats b;
  b.transmissions = 3;
  b.retransmissions = 1;
  ChannelStats d = a - b;
  EXPECT_EQ(d.transmissions, 7);
  EXPECT_EQ(d.retransmissions, 3);
  EXPECT_EQ(d.resyncs, 2);
}

TEST(ChannelStatsTest, ToStringListsNonZeroFields) {
  ChannelStats s;
  EXPECT_EQ(s.ToString(), "none");
  s.transmissions = 5;
  s.give_ups = 1;
  std::string str = s.ToString();
  EXPECT_NE(str.find("transmissions=5"), std::string::npos);
  EXPECT_NE(str.find("give_ups=1"), std::string::npos);
  EXPECT_EQ(str.find("acks"), std::string::npos);
}

}  // namespace
}  // namespace dcv
