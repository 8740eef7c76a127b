#include "runtime/transport.h"

#include <string>

namespace dcv {

std::string_view ActorMsgKindName(ActorMsgKind kind) {
  switch (kind) {
    case ActorMsgKind::kEpochStart:
      return "epoch_start";
    case ActorMsgKind::kEpochReport:
      return "epoch_report";
    case ActorMsgKind::kShutdown:
      return "shutdown";
    case ActorMsgKind::kSiteDone:
      return "site_done";
    case ActorMsgKind::kAlarm:
      return "alarm";
    case ActorMsgKind::kPollRequest:
      return "poll_request";
    case ActorMsgKind::kPollResponse:
      return "poll_response";
    case ActorMsgKind::kThresholdUpdate:
      return "threshold_update";
    case ActorMsgKind::kEpochDone:
      return "epoch_done";
    case ActorMsgKind::kPollRange:
      return "poll_range";
    case ActorMsgKind::kSiteDown:
      return "site_down";
    case ActorMsgKind::kPing:
      return "ping";
  }
  return "unknown";
}

Status CheckRangeCommand(const Envelope& e, int num_sites, int num_workers,
                         int worker) {
  if (!IsRangeCommand(e.msg.kind)) {
    return OkStatus();
  }
  const std::string what = std::string(ActorMsgKindName(e.msg.kind)) +
                           " range [" + std::to_string(e.to) + ", " +
                           std::to_string(e.msg.value) + ")";
  if (e.to < 0 || e.to >= num_sites || num_workers < 1 ||
      e.to % num_workers != worker) {
    return InvalidArgumentError(what + " does not start at a site of worker " +
                                std::to_string(worker));
  }
  if (e.msg.value <= e.to || e.msg.value > num_sites) {
    return InvalidArgumentError(what + " has an end outside (" +
                                std::to_string(e.to) + ", " +
                                std::to_string(num_sites) + "]");
  }
  return OkStatus();
}

Result<std::unique_ptr<ThreadTransport>> ThreadTransport::Create(
    int num_sites, int num_workers, size_t coordinator_capacity,
    size_t worker_capacity, int num_shards) {
  if (num_sites < 1) {
    return InvalidArgumentError("transport needs at least one site");
  }
  if (num_workers < 1 || num_workers > num_sites) {
    return InvalidArgumentError(
        "num_workers must be in [1, num_sites]");
  }
  DCV_ASSIGN_OR_RETURN(ShardLayout layout,
                       MakeShardLayout(num_sites, num_shards));
  if (coordinator_capacity == 0) {
    // Per-shard fan-in: an epoch can put at most 2 messages per owned site
    // in flight toward a shard (report + poll response), and the root's
    // commands ride in the headroom. One shard degenerates to the
    // historical 2 * num_sites + 16 whole-coordinator formula.
    coordinator_capacity =
        2 * static_cast<size_t>(layout.MaxShardSites()) + 16;
  }
  if (worker_capacity == 0) {
    // Ceil(sites / workers) sites share a worker inbox.
    size_t per_worker =
        (static_cast<size_t>(num_sites) + static_cast<size_t>(num_workers) -
         1) /
        static_cast<size_t>(num_workers);
    worker_capacity = 4 * per_worker + 8;
  }
  return std::unique_ptr<ThreadTransport>(new ThreadTransport(
      layout, num_workers, coordinator_capacity, worker_capacity));
}

ThreadTransport::ThreadTransport(ShardLayout layout, int num_workers,
                                 size_t coordinator_capacity,
                                 size_t worker_capacity)
    : num_sites_(layout.num_sites), num_workers_(num_workers) {
  layouts_.push_back(std::make_unique<ShardLayout>(std::move(layout)));
  layout_ptr_.store(layouts_.back().get(), std::memory_order_release);
  const int num_shards = layouts_.back()->num_shards;
  shard_boxes_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_boxes_.push_back(
        std::make_unique<Mailbox<Envelope>>(coordinator_capacity));
  }
  worker_boxes_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    worker_boxes_.push_back(std::make_unique<Mailbox<Envelope>>(worker_capacity));
  }
}

Mailbox<Envelope>* ThreadTransport::BoxFor(const Envelope& e,
                                           const ShardLayout& layout) const {
  if (e.to == kCoordinatorId) {
    if (e.from < 0 || e.from >= num_sites_) {
      return nullptr;
    }
    return shard_boxes_[static_cast<size_t>(layout.ShardOf(e.from))].get();
  }
  if (e.to < 0 || e.to >= num_sites_) {
    return nullptr;
  }
  return worker_boxes_[static_cast<size_t>(WorkerOf(e.to))].get();
}

bool ThreadTransport::SendBatch(std::vector<Envelope>* batch) {
  // Route everything before delivering anything, so an unroutable envelope
  // rejects the batch whole. One layout snapshot serves both passes.
  const ShardLayout& layout = *current();
  Mailbox<Envelope>* only = nullptr;
  bool single = true;
  for (const Envelope& e : *batch) {
    Mailbox<Envelope>* box = BoxFor(e, layout);
    if (box == nullptr) {
      batch->clear();
      return false;
    }
    if (only == nullptr) {
      only = box;
    } else if (box != only) {
      single = false;
    }
  }
  if (only == nullptr) {
    return true;  // Empty batch.
  }
  if (single) {
    // The common case — every fan-out to a single worker, every reply
    // burst to a single shard: one PushAll, which moves a large batch's
    // buffer into the mailbox as is.
    return only->PushAll(batch);
  }
  // Several destinations: group by mailbox so each box takes one PushAll
  // per burst. A coordinator fan-out over N sites alternates workers every
  // envelope (site % num_workers), so grouping — not run-length detection
  // — is what recovers the batching win. Order within each group is batch
  // order, preserving the per-producer FIFO guarantee every barrier in the
  // runtime leans on.
  std::vector<std::vector<Envelope>> to_shard(shard_boxes_.size());
  std::vector<std::vector<Envelope>> to_worker(worker_boxes_.size());
  for (const Envelope& e : *batch) {
    if (e.to == kCoordinatorId) {
      to_shard[static_cast<size_t>(layout.ShardOf(e.from))].push_back(e);
    } else {
      to_worker[static_cast<size_t>(WorkerOf(e.to))].push_back(e);
    }
  }
  batch->clear();
  for (size_t s = 0; s < to_shard.size(); ++s) {
    if (!to_shard[s].empty() && !shard_boxes_[s]->PushAll(&to_shard[s])) {
      return false;
    }
  }
  for (size_t w = 0; w < to_worker.size(); ++w) {
    if (!to_worker[w].empty() && !worker_boxes_[w]->PushAll(&to_worker[w])) {
      return false;
    }
  }
  return true;
}

size_t ThreadTransport::TrySendBatch(const std::vector<Envelope>& batch,
                                     size_t begin, bool* closed) {
  // Prefix semantics: stop at the first full/closed/unroutable destination
  // so the caller's retry cursor stays a plain offset. `*closed` flags the
  // permanent stop reasons (closed box, unroutable envelope) — a full box
  // leaves it false so the caller retries after draining its own inbox.
  const ShardLayout& layout = *current();
  size_t sent = 0;
  while (begin + sent < batch.size()) {
    const Envelope& e = batch[begin + sent];
    Mailbox<Envelope>* box = BoxFor(e, layout);
    const MailboxPush push =
        box == nullptr ? MailboxPush::kClosed : box->TryPush(e);
    if (push != MailboxPush::kOk) {
      if (push == MailboxPush::kClosed && closed != nullptr) {
        *closed = true;
      }
      break;
    }
    ++sent;
  }
  return sent;
}

bool ThreadTransport::SendToShard(int shard, const Envelope& e) {
  if (shard < 0 || shard >= static_cast<int>(shard_boxes_.size())) {
    return false;
  }
  return shard_boxes_[static_cast<size_t>(shard)]->Push(e);
}

bool ThreadTransport::TrySendToShard(int shard, const Envelope& e) {
  if (shard < 0 || shard >= static_cast<int>(shard_boxes_.size())) {
    return false;
  }
  return shard_boxes_[static_cast<size_t>(shard)]->TryPush(e) ==
         MailboxPush::kOk;
}

size_t ThreadTransport::RecvShardAll(int shard, std::vector<Envelope>* out) {
  return shard_boxes_[static_cast<size_t>(shard)]->PopAll(out);
}

Status ThreadTransport::UpdateLayout(const ShardLayout& next) {
  std::lock_guard<std::mutex> lock(layout_mu_);
  const ShardLayout* live = current();
  if (next.num_sites != live->num_sites ||
      next.num_shards != live->num_shards) {
    return InvalidArgumentError(
        "layout update must keep the fabric shape (sites, shards)");
  }
  if (next.version <= live->version) {
    return InvalidArgumentError("layout update version must be newer than " +
                                std::to_string(live->version));
  }
  layouts_.push_back(std::make_unique<ShardLayout>(next));
  layout_ptr_.store(layouts_.back().get(), std::memory_order_release);
  return OkStatus();
}

bool ThreadTransport::RecvWorker(int worker, Envelope* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->Pop(out);
}

size_t ThreadTransport::RecvWorkerAll(int worker, std::vector<Envelope>* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->PopAll(out);
}

size_t ThreadTransport::TryRecvWorkerAll(int worker,
                                         std::vector<Envelope>* out) {
  return worker_boxes_[static_cast<size_t>(worker)]->TryPopAll(out);
}

void ThreadTransport::Shutdown() {
  for (auto& box : shard_boxes_) {
    box->Close();
  }
  for (auto& box : worker_boxes_) {
    box->Close();
  }
}

}  // namespace dcv
