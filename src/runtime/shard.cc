#include "runtime/shard.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dcv {

namespace {

/// Pushes a kError to the root; a shard never returns a Status because it
/// runs on its own thread — the root turns the first kError it sees into
/// the run's failure.
void ReportError(const ShardContext& ctx, Status status) {
  RootMsg err;
  err.kind = RootMsg::Kind::kError;
  err.shard = ctx.shard;
  err.status = std::move(status);
  ctx.to_root->Push(std::move(err));
}

/// Appends one range command `msg` per worker that owns a site in
/// [start, end): `to` is the worker's lowest such site, `value` the end.
/// Returns the number of commands (min(W, end - start)).
int AppendRangeCommands(int start, int end, int num_workers, ActorMessage msg,
                        std::vector<Envelope>* out) {
  msg.value = end;
  int ranges = 0;
  for (int w = 0; w < num_workers; ++w) {
    const int first = start + ((w - start % num_workers) + num_workers) %
                                  num_workers;
    if (first < end) {
      out->push_back(Envelope{kCoordinatorId, first, msg});
      ++ranges;
    }
  }
  return ranges;
}

}  // namespace

FaultSpec SliceFaultSpec(const FaultSpec& faults, const ShardLayout& layout,
                         int shard) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  FaultSpec out = faults;
  if (!faults.per_site_loss.empty()) {
    out.per_site_loss.clear();
    for (int i = 0; i < size; ++i) {
      const size_t global = static_cast<size_t>(start + i);
      out.per_site_loss.push_back(global < faults.per_site_loss.size()
                                      ? faults.per_site_loss[global]
                                      : faults.loss);
    }
  }
  out.crashes.clear();
  for (const CrashWindow& crash : faults.crashes) {
    if (crash.site >= start && crash.site < start + size) {
      CrashWindow local = crash;
      local.site = crash.site - start;
      out.crashes.push_back(local);
    }
  }
  // Splitmix64 increment times (shard + 1): distinct, seed-deterministic
  // streams per shard. Free-running mode claims no cross-configuration
  // determinism, so a k=1 stream need not equal the unsliced spec's.
  out.seed = faults.seed ^ (0x9e3779b97f4a7c15ULL *
                            static_cast<uint64_t>(shard + 1));
  return out;
}

Status ShardEpochLeg(Transport* transport, const ShardLayout& layout,
                     int shard, const ShardCmd& cmd, ShardLegBuffers* buffers,
                     std::vector<std::pair<int, int64_t>>* alarmed) {
  const int start = layout.ShardStart(shard);
  const int end = start + layout.ShardSize(shard);
  // One batched fan-out per epoch leg: per-site re-syncs and down markers
  // first, then the range starts. The mailbox is per-producer FIFO and one
  // thread at a time produces for these sites (the shard, or the root), so
  // a site installs its threshold and its down flag before it evaluates —
  // the order the lockstep scheme applies them in.
  std::vector<Envelope>& fanout = buffers->fanout;  // Empty: SendBatch took it.
  ActorMessage update;
  update.kind = ActorMsgKind::kThresholdUpdate;
  update.epoch = cmd.epoch;
  for (const auto& [site, threshold] : cmd.resync) {
    update.value = threshold;
    fanout.push_back(Envelope{kCoordinatorId, site, update});
  }
  ActorMessage down;
  down.kind = ActorMsgKind::kSiteDown;
  down.epoch = cmd.epoch;
  for (int site : cmd.down_sites) {
    fanout.push_back(Envelope{kCoordinatorId, site, down});
  }
  ActorMessage begin;
  begin.kind = ActorMsgKind::kEpochStart;
  begin.epoch = cmd.epoch;
  int dones_pending = AppendRangeCommands(start, end, transport->num_workers(),
                                          begin, &fanout);
  int64_t moved = static_cast<int64_t>(fanout.size());
  if (!transport->SendBatch(&fanout)) {
    return InternalError("transport closed during epoch start");
  }
  // Each worker sends its range's alarm reports, then its done marker, in
  // one FIFO stream; collecting until every done is in sees every report.
  alarmed->clear();
  std::vector<Envelope>& batch = buffers->inbox;
  while (dones_pending > 0) {
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      return InternalError("transport closed while collecting reports");
    }
    moved += static_cast<int64_t>(batch.size());
    for (const Envelope& e : batch) {
      if (e.msg.epoch != cmd.epoch || e.from < start || e.from >= end) {
        return InternalError("out-of-order message at epoch barrier");
      }
      if (e.msg.kind == ActorMsgKind::kEpochReport) {
        alarmed->emplace_back(e.from, e.msg.value);
      } else if (e.msg.kind == ActorMsgKind::kEpochDone && e.msg.value == end) {
        --dones_pending;
      } else {
        return InternalError(std::string("unexpected ") +
                             std::string(ActorMsgKindName(e.msg.kind)) +
                             " at epoch barrier");
      }
    }
  }
  DCV_OBS_COUNT(buffers->barrier_envelopes, moved);
  // Reports of different workers interleave; the root replays ascending.
  std::sort(alarmed->begin(), alarmed->end());
  return OkStatus();
}

Status ShardPollLeg(Transport* transport, const ShardLayout& layout,
                    int shard, int64_t epoch, ShardLegBuffers* buffers,
                    int64_t* values) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  ActorMessage request;
  request.kind = ActorMsgKind::kPollRange;
  request.epoch = epoch;
  std::vector<Envelope>& fanout = buffers->fanout;  // Empty: SendBatch took it.
  AppendRangeCommands(start, start + size, transport->num_workers(), request,
                      &fanout);
  if (!transport->SendBatch(&fanout)) {
    return InternalError("transport closed during poll round");
  }
  std::vector<Envelope>& batch = buffers->inbox;
  int pending = size;
  while (pending > 0) {
    batch.clear();
    if (transport->RecvShardAll(shard, &batch) == 0) {
      return InternalError("transport closed while collecting poll responses");
    }
    for (const Envelope& e : batch) {
      if (e.msg.kind != ActorMsgKind::kPollResponse || e.from < start ||
          e.from >= start + size) {
        return InternalError(std::string("unexpected ") +
                             std::string(ActorMsgKindName(e.msg.kind)) +
                             " during poll round");
      }
      values[e.from - start] = e.msg.value;
      --pending;
    }
  }
  return OkStatus();
}

void ShardShutdownLeg(Transport* transport, const ShardLayout& layout,
                      int shard) {
  const int start = layout.ShardStart(shard);
  const int size = layout.ShardSize(shard);
  ActorMessage shutdown;
  shutdown.kind = ActorMsgKind::kShutdown;
  std::vector<Envelope> fanout;
  fanout.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    fanout.push_back(Envelope{kCoordinatorId, start + i, shutdown});
  }
  transport->SendBatch(&fanout);
}

void RunShardVirtual(ShardContext ctx) {
  // Mutable: a kLayout command re-ranges the shard mid-run.
  ShardLayout layout = ctx.layout;
  std::vector<std::pair<int, int64_t>> entries;
  ShardLegBuffers buffers;
  buffers.barrier_envelopes = ctx.barrier_envelopes;

  ShardCmd cmd;
  while (ctx.cmds->Pop(&cmd)) {
    switch (cmd.kind) {
      case ShardCmd::Kind::kShutdown: {
        ShardShutdownLeg(ctx.transport, layout, ctx.shard);
        return;
      }
      case ShardCmd::Kind::kLayout: {
        layout = cmd.layout;
        break;
      }
      case ShardCmd::Kind::kEpoch: {
        if (cmd.epoch == ctx.die_at_epoch) {
          // Chaos: crash before sending anything for this epoch. The
          // consumed command is the only thing lost, and the root holds a
          // copy — it re-executes the command itself after the heartbeat
          // timeout, so the sites (still waiting for kEpochStart) see one
          // producer and one barrier, exactly as if the shard had lived.
          return;
        }
        if (Status st = ShardEpochLeg(ctx.transport, layout, ctx.shard, cmd,
                                      &buffers, &entries);
            !st.ok()) {
          ReportError(ctx, std::move(st));
          return;
        }
        RootMsg partial;
        partial.kind = RootMsg::Kind::kEpochPartial;
        partial.shard = ctx.shard;
        partial.epoch = cmd.epoch;
        partial.entries = std::move(entries);
        if (!ctx.to_root->Push(std::move(partial))) {
          return;
        }
        break;
      }
      case ShardCmd::Kind::kPoll: {
        RootMsg partial;
        partial.values.resize(static_cast<size_t>(layout.ShardSize(ctx.shard)));
        if (Status st = ShardPollLeg(ctx.transport, layout, ctx.shard,
                                     cmd.epoch, &buffers,
                                     partial.values.data());
            !st.ok()) {
          ReportError(ctx, std::move(st));
          return;
        }
        partial.kind = RootMsg::Kind::kPollPartial;
        partial.shard = ctx.shard;
        partial.epoch = cmd.epoch;
        if (!ctx.to_root->Push(std::move(partial))) {
          return;
        }
        break;
      }
    }
  }
}

void RunShardFree(ShardContext ctx) {
  const int start = ctx.layout.ShardStart(ctx.shard);
  const int size = ctx.layout.ShardSize(ctx.shard);

  // Free-running shards own their slice of the data plane: a private
  // channel over shard-local site ids charges a private counter, and the
  // root merges the k (counter, stats, alarms) triples at kShardExit.
  MessageCounter counter;
  Channel channel(ctx.faults);
  {
    // A free-running shard always terminates via kShardExit — even on init
    // failure — so the root can count k exits before joining.
    Status init = channel.Init(size, &counter);
    if (!init.ok()) {
      RootMsg exit;
      exit.kind = RootMsg::Kind::kShardExit;
      exit.shard = ctx.shard;
      exit.status = init;
      ctx.to_root->Push(std::move(exit));
      return;
    }
  }
  channel.SetObserver(ctx.metrics, ctx.recorder);

  int64_t watermark = -1;
  bool poll_outstanding = false;
  int poll_pending = 0;
  bool notice_sent = false;  ///< Collapse alarms into one notice per round.
  std::vector<int64_t> poll_values(static_cast<size_t>(size), 0);
  int64_t alarms = 0;
  int64_t batches_survived = 0;
  std::vector<Envelope> batch;
  std::vector<std::pair<int, int64_t>> done_sites;  ///< This burst's.
  bool running = true;
  Status exit_status = OkStatus();

  auto advance_watermark = [&](int64_t epoch) {
    if (epoch > watermark) {
      channel.BeginEpoch(epoch);
      watermark = epoch;
    }
  };
  std::vector<Envelope> poll_fanout;  ///< Reused; SendBatch recycles it.
  auto start_local_poll = [&]() -> bool {
    ActorMessage request;
    request.kind = ActorMsgKind::kPollRequest;
    request.epoch = std::max<int64_t>(watermark, 0);
    poll_fanout.reserve(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      poll_fanout.push_back(Envelope{kCoordinatorId, start + i, request});
    }
    if (!ctx.transport->SendBatch(&poll_fanout)) {
      return false;
    }
    std::fill(poll_values.begin(), poll_values.end(), 0);
    poll_pending = size;
    poll_outstanding = true;
    return true;
  };

  while (running) {
    if (ctx.die_after_batches >= 0 &&
        batches_survived >= ctx.die_after_batches) {
      // Chaos: crash at a batch boundary — every consumed message was
      // fully handled (notices pushed, done reports relayed) and every
      // unconsumed one is still queued in the shard inbox, which the
      // root's respawned replacement drains. Nothing is lost; only this
      // shard's channel/counter accounting dies with it.
      return;
    }
    batch.clear();
    if (ctx.transport->RecvShardAll(ctx.shard, &batch) == 0) {
      exit_status = InternalError("transport closed while sites were live");
      break;
    }
    ++batches_survived;
    for (const Envelope& e : batch) {
      if (!running) {
        break;
      }
      if (e.from == kCoordinatorId) {
        // Root command, injected shard-locally via SendToShard (never the
        // wire): kPollRequest opens a poll leg, kPing asks for a liveness
        // heartbeat, kShutdown ends the run.
        if (e.msg.kind == ActorMsgKind::kShutdown) {
          running = false;
        } else if (e.msg.kind == ActorMsgKind::kPing) {
          RootMsg beat;
          beat.kind = RootMsg::Kind::kHeartbeat;
          beat.shard = ctx.shard;
          beat.epoch = e.msg.epoch;  // Echo the probe id.
          if (!ctx.to_root->Push(std::move(beat))) {
            running = false;
          }
        } else if (e.msg.kind == ActorMsgKind::kPollRequest &&
                   !poll_outstanding) {
          notice_sent = false;
          if (!start_local_poll()) {
            exit_status = InternalError("transport closed during poll round");
            running = false;
          }
        }
        continue;
      }
      switch (e.msg.kind) {
        case ActorMsgKind::kAlarm: {
          advance_watermark(e.msg.epoch);
          DCV_OBS_COUNT(ctx.alarms_rx, 1);
          ++alarms;
          SendStatus s =
              channel.SendFromSite(e.from - start, MessageType::kAlarm,
                                   /*reliable=*/true, e.msg.value);
          std::vector<Channel::Arrival> stale =
              channel.TakeArrivals(MessageType::kAlarm);
          if ((s == SendStatus::kDelivered || !stale.empty()) &&
              !notice_sent) {
            // One notice per round: the root collapses notices from k
            // shards into at most one outstanding global round plus one
            // catch-up, so alarm fan-in costs O(k) root messages per round
            // no matter how many sites fire.
            RootMsg notice;
            notice.kind = RootMsg::Kind::kAlarmNotice;
            notice.shard = ctx.shard;
            notice.epoch = watermark;
            if (!ctx.to_root->Push(std::move(notice))) {
              running = false;
              break;
            }
            notice_sent = true;
          }
          break;
        }
        case ActorMsgKind::kPollResponse: {
          if (!poll_outstanding) {
            break;  // Response to a round we already resolved; ignore.
          }
          poll_values[static_cast<size_t>(e.from - start)] = e.msg.value;
          if (--poll_pending == 0) {
            PollOutcome poll =
                channel.PollSites(poll_values, ctx.weights, ctx.domain_max);
            poll_outstanding = false;
            RootMsg partial;
            partial.kind = RootMsg::Kind::kPollPartial;
            partial.shard = ctx.shard;
            partial.epoch = watermark;
            partial.partial_sum = poll.weighted_sum;
            partial.partial_min = poll.values.empty() ? 0 : poll.values[0];
            partial.partial_max = partial.partial_min;
            for (int64_t v : poll.values) {
              partial.partial_min = std::min(partial.partial_min, v);
              partial.partial_max = std::max(partial.partial_max, v);
            }
            partial.responses = poll.responses;
            partial.timeouts = poll.timeouts;
            if (!ctx.to_root->Push(std::move(partial))) {
              running = false;
            }
          }
          break;
        }
        case ActorMsgKind::kSiteDone: {
          done_sites.emplace_back(e.from, e.msg.value);
          break;
        }
        default:
          exit_status = InternalError(
              std::string("unexpected ") +
              std::string(ActorMsgKindName(e.msg.kind)) +
              " in free-running mode");
          running = false;
          break;
      }
    }
    // One relay per burst, before the next chaos check: the root counts
    // sites, not shards, so a death between bursts loses no done report.
    if (!done_sites.empty()) {
      RootMsg done;
      done.kind = RootMsg::Kind::kSiteDone;
      done.shard = ctx.shard;
      done.entries = std::move(done_sites);
      done_sites.clear();
      if (!ctx.to_root->Push(std::move(done))) {
        running = false;
      }
    }
  }

  ShardShutdownLeg(ctx.transport, ctx.layout, ctx.shard);
  RootMsg exit;
  exit.kind = RootMsg::Kind::kShardExit;
  exit.shard = ctx.shard;
  exit.alarms = alarms;
  exit.messages = counter;
  exit.reliability = channel.stats();
  exit.status = exit_status;
  ctx.to_root->Push(std::move(exit));
}

}  // namespace dcv
