#ifndef DCV_RUNTIME_TRANSPORT_H_
#define DCV_RUNTIME_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "runtime/actor_message.h"
#include "runtime/mailbox.h"
#include "runtime/shard_layout.h"

namespace dcv {

/// Message fabric between the coordinator tree and the site workers. The
/// interface is socket-shaped — opaque routed envelopes, a blocking batch
/// receive per endpoint, an explicit shutdown — and batch-only on the data
/// plane: every send is a SendBatch (a lone envelope is a 1-element batch)
/// and every receive drains a whole burst. Two implementations:
/// `ThreadTransport` below (in-process, one bounded Mailbox per worker
/// thread plus one per shard coordinator) and `SocketTransport` (TCP, one
/// connection per worker process).
///
/// Sites are multiplexed onto workers: `WorkerOf(site)` names the worker
/// inbox a site-addressed envelope lands in. With num_workers == num_sites
/// every site has its own thread; with fewer, workers round-robin their
/// sites (how `dcvtool run --threads` maps N sites onto K threads).
///
/// Coordinator-bound traffic is fanned across `num_shards` shard inboxes:
/// a site-to-coordinator envelope lands in shard `ShardOf(e.from)`'s inbox
/// (contiguous balanced ranges; see shard_layout.h). With num_shards == 1
/// — the default — shard 0's inbox is the whole coordinator inbox.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_sites() const = 0;
  virtual int num_workers() const = 0;
  virtual int WorkerOf(int site) const = 0;

  virtual int num_shards() const = 0;
  virtual int ShardOf(int site) const = 0;

  /// Routes every envelope by e.to: site-addressed envelopes to worker
  /// WorkerOf(e.to), coordinator-bound ones (e.to == kCoordinatorId) to
  /// shard ShardOf(e.from). Per-destination FIFO order is preserved
  /// (envelopes to the same inbox land in batch order), and
  /// implementations amortize locking/framing across the batch: the thread
  /// transport hands the batch to its destination mailbox whole
  /// (Mailbox::PushAll), the socket transport moves it into the
  /// connection's send box, whose writer coalesces each burst into one
  /// kEnvelopeBatch wire frame.
  ///
  /// Ownership contract: the transport takes the envelopes. On return
  /// `*batch` is empty on every path, keeping its capacity or holding a
  /// recycled buffer, so a caller that refills the same vector every epoch
  /// allocates nothing in steady state.
  ///
  /// Blocks when a destination inbox is full (backpressure). Returns false
  /// iff an envelope was unroutable — checked up front, so nothing was
  /// delivered — or a destination was closed, in which case a prefix may
  /// have been delivered.
  virtual bool SendBatch(std::vector<Envelope>* batch) = 0;

  /// Non-blocking SendBatch: consumes the longest routable prefix of
  /// batch[begin..] that fits right now and returns its length. The
  /// multiplexed site engine uses this for data-plane pushes so a worker
  /// never blocks on a full coordinator inbox while the coordinator blocks
  /// fanning out to that worker — the classic A/B full-mailbox deadlock;
  /// the engine keeps the unsent suffix and retries after draining its own
  /// inbox. When the stop reason is permanent — destination closed or
  /// envelope unroutable — `*closed` (if non-null) is set so the caller
  /// stops retrying a dead fabric; a plain full inbox leaves it false.
  virtual size_t TrySendBatch(const std::vector<Envelope>& batch, size_t begin,
                              bool* closed = nullptr) = 0;

  /// Injects a root-aggregator command (poll kick, shutdown) directly into
  /// a shard coordinator's inbox, bypassing site routing. Local to the
  /// coordinator process — never crosses the wire, so the socket transport
  /// needs no new frame types for it. Returns false iff the inbox is
  /// closed.
  virtual bool SendToShard(int shard, const Envelope& e) = 0;

  /// Non-blocking SendToShard: queues the command iff the inbox has room
  /// right now; false = full or closed, nothing was queued. The root's
  /// failure-detection path uses this with its own retry backlog — a dead
  /// shard's inbox stays full of blocked site updates, and a blocking
  /// push into it would wedge the root (and with it the whole recovery
  /// machinery) forever.
  virtual bool TrySendToShard(int shard, const Envelope& e) = 0;

  /// Batch drain of one shard inbox (Mailbox::PopAll): blocks for the
  /// first message, then moves every queued message under one lock.
  /// Appends to `out`; 0 = closed and drained.
  virtual size_t RecvShardAll(int shard, std::vector<Envelope>* out) = 0;

  /// Blocking receive of ONE envelope from a worker inbox; false = closed
  /// and drained. For a reader that must leave what follows queued — the
  /// socket site worker's initial threshold sync, after which the engine
  /// drains the inbox itself.
  virtual bool RecvWorker(int worker, Envelope* out) = 0;

  /// Batch drain of a worker inbox — the worker-side mirror of
  /// RecvShardAll: blocks for the first message, then moves every queued
  /// message under one lock. Appends to `out`; 0 = closed and drained.
  virtual size_t RecvWorkerAll(int worker, std::vector<Envelope>* out) = 0;

  /// Non-blocking batch drain of a worker inbox; 0 = nothing immediately
  /// available (says nothing about the box being closed).
  virtual size_t TryRecvWorkerAll(int worker, std::vector<Envelope>* out) = 0;

  /// Closes every inbox (receivers drain, then their Recv returns false).
  virtual void Shutdown() = 0;

  /// The current site->shard assignment (reflects any layout pushed by
  /// UpdateLayout).
  virtual ShardLayout layout() const = 0;

  /// Pushes a new versioned shard layout mid-run. The shape (num_sites,
  /// num_shards) must match the current layout — a reshard rebalances the
  /// boundaries, it does not grow the tree — and the version must be
  /// strictly newer. The call returns once every routing party has adopted
  /// the layout (for the socket transport: after each worker acked the
  /// kLayoutUpdate frame), so the caller can treat it as a barrier fence:
  /// envelopes sent afterward route by the new layout everywhere.
  virtual Status UpdateLayout(const ShardLayout& next) {
    (void)next;
    return UnimplementedError("transport does not support layout updates");
  }

  /// Test/chaos hook: forcibly severs the link to one worker, simulating a
  /// worker crash or network partition (for the socket transport, a hard
  /// shutdown of the TCP connection). Transports without a severable link
  /// report Unimplemented.
  virtual Status InjectPeerFailure(int worker) {
    (void)worker;
    return UnimplementedError("transport has no severable worker links");
  }
};

/// In-process transport over bounded mailboxes, one per worker plus one per
/// shard coordinator. Capacity invariants the runtime relies on to stay
/// deadlock-free with blocking sends:
///
///  * the coordinator tree never blocks on a worker inbox: at most one
///    epoch start, one poll request, one threshold update, and one
///    shutdown can be in flight per owned site, and worker capacity covers
///    that;
///  * sites may block pushing into a shard inbox (that is the backpressure
///    path), but every shard coordinator is always in its receive loop, so
///    the box drains. The root's SendToShard commands ride the same
///    guarantee.
class ThreadTransport : public Transport {
 public:
  /// `coordinator_capacity` 0 = auto (2 * max-sites-per-shard + 16; with
  /// one shard that is the historical 2 * num_sites + 16).
  /// `worker_capacity` 0 = auto (4 * ceil(sites/workers) + 8).
  static Result<std::unique_ptr<ThreadTransport>> Create(
      int num_sites, int num_workers, size_t coordinator_capacity = 0,
      size_t worker_capacity = 0, int num_shards = 1);

  int num_sites() const override { return num_sites_; }
  int num_workers() const override { return num_workers_; }
  int WorkerOf(int site) const override { return site % num_workers_; }
  int num_shards() const override { return current()->num_shards; }
  int ShardOf(int site) const override { return current()->ShardOf(site); }

  bool SendBatch(std::vector<Envelope>* batch) override;
  size_t TrySendBatch(const std::vector<Envelope>& batch, size_t begin,
                      bool* closed = nullptr) override;
  bool SendToShard(int shard, const Envelope& e) override;
  bool TrySendToShard(int shard, const Envelope& e) override;
  size_t RecvShardAll(int shard, std::vector<Envelope>* out) override;
  bool RecvWorker(int worker, Envelope* out) override;
  size_t RecvWorkerAll(int worker, std::vector<Envelope>* out) override;
  size_t TryRecvWorkerAll(int worker, std::vector<Envelope>* out) override;
  void Shutdown() override;
  ShardLayout layout() const override { return *current(); }
  Status UpdateLayout(const ShardLayout& next) override;

  /// Capacity of each shard coordinator inbox (identical across shards;
  /// the formula uses the most-loaded shard's site count).
  size_t coordinator_capacity() const { return shard_boxes_[0]->capacity(); }

  /// Capacity of each worker inbox (identical across workers; with uneven
  /// site division the formula uses ceil(sites/workers), so the most-loaded
  /// worker still fits its 4-messages-per-owned-site worst case).
  size_t worker_capacity() const {
    return worker_boxes_.empty() ? 0 : worker_boxes_[0]->capacity();
  }

 private:
  ThreadTransport(ShardLayout layout, int num_workers,
                  size_t coordinator_capacity, size_t worker_capacity);

  /// The live layout. Routing reads are lock-free (acquire on an atomic
  /// pointer); UpdateLayout retires superseded layouts into layouts_ so a
  /// racing reader never dereferences freed memory.
  const ShardLayout* current() const {
    return layout_ptr_.load(std::memory_order_acquire);
  }

  /// The inbox `e` routes to under `layout`; nullptr when unroutable.
  Mailbox<Envelope>* BoxFor(const Envelope& e, const ShardLayout& layout) const;

  int num_sites_;
  int num_workers_;
  std::mutex layout_mu_;  ///< Serializes UpdateLayout calls.
  std::vector<std::unique_ptr<ShardLayout>> layouts_;
  std::atomic<const ShardLayout*> layout_ptr_{nullptr};
  std::vector<std::unique_ptr<Mailbox<Envelope>>> shard_boxes_;
  std::vector<std::unique_ptr<Mailbox<Envelope>>> worker_boxes_;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_TRANSPORT_H_
