#ifndef DCV_RUNTIME_MAILBOX_H_
#define DCV_RUNTIME_MAILBOX_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

namespace dcv {

/// Outcome of a non-blocking push attempt.
enum class MailboxPush {
  kOk,      ///< Enqueued.
  kFull,    ///< At capacity; try again or fall back to blocking Push.
  kClosed,  ///< Mailbox closed; the message will never be accepted.
};

/// Bounded multi-producer queue — the runtime's only cross-thread channel.
/// Producers block in Push when the box is full (backpressure: a slow
/// consumer throttles its senders instead of growing an unbounded queue).
/// Close() wakes every blocked producer and consumer; after it, pushes are
/// rejected but Pop keeps draining whatever was already enqueued, so a
/// graceful shutdown never loses accepted messages.
///
/// Ordering guarantee: messages from one producer are delivered in that
/// producer's push order (single lock, single FIFO). Messages from
/// different producers interleave arbitrarily.
///
/// The intended topology is MPSC — many actors feeding one owner's inbox —
/// but nothing breaks with several consumers (each message is delivered
/// exactly once).
///
/// Storage is a FIFO of owned segments, each a std::vector<T> plus a read
/// cursor, so a large burst crosses threads without copying its items:
///
///  * a PushAll batch of at least kWholeBatchBytes that fits the free
///    capacity becomes one segment by move — the producer's buffer itself
///    is enqueued;
///  * single pushes, smaller batches and batches that only fit in part
///    append to small segments of kSegmentBytes, so the queue's memory
///    stays proportional to what it holds;
///  * PopAll into an empty vector swaps the front segment's buffer out
///    when it holds the whole queue, again without touching the items;
///  * drained batch buffers (and the buffers consumers swap in) go to a
///    small spare pool, and a producer whose batch was enqueued by move
///    gets the largest spare back. Steady-state bursts therefore circulate
///    a fixed set of buffers and allocate nothing.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Blocks while full; returns false iff the mailbox was closed before the
  /// message could be enqueued.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
    if (closed_) {
      return false;
    }
    AppendLocked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking batched push — the send-side mirror of PopAll. Takes
  /// ownership of the whole vector: on return `*items` is empty, keeping
  /// its capacity or holding a recycled buffer, so the caller can refill
  /// it without allocating. A large batch that fits the free capacity is
  /// enqueued as one segment by move (no per-item copy); others are moved
  /// item by item into small segments, in waves when they exceed the free
  /// capacity — each wakeup moves as many items as fit, then waits for the
  /// consumer to make room. Per-producer FIFO order is preserved (items
  /// land front-to-back). Returns false iff the mailbox was closed before
  /// every item was enqueued; the accepted prefix stays poppable
  /// (drain-on-shutdown), same as a sequence of single Pushes interrupted
  /// by Close, and the rejected suffix is dropped.
  bool PushAll(std::vector<T>* items) {
    size_t next = 0;
    bool ok = true;
    while (next < items->size()) {
      size_t moved = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
        if (closed_) {
          ok = false;
          break;
        }
        if (next == 0 && WholeBatchLocked(*items)) {
          moved = items->size();
          next = moved;
          size_ += moved;
          segments_.push_back(Segment{std::move(*items), 0});
          *items = TakeSpareLocked();
        } else {
          moved = MovePrefixLocked(items, next);
          next += moved;
        }
      }
      if (moved == 1) {
        not_empty_.notify_one();
      } else {
        not_empty_.notify_all();
      }
    }
    items->clear();
    return ok;
  }

  /// Non-blocking batched push: enqueues the longest prefix of
  /// items[begin..] that fits right now and returns its length (0 when the
  /// box is full or closed; `*closed` distinguishes the two so callers can
  /// stop retrying a dead box). Moved-from slots are left behind in
  /// `items`; the caller advances its own cursor by the return value.
  size_t TryPushAll(std::vector<T>* items, size_t begin, bool* closed) {
    size_t moved = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed != nullptr) {
        *closed = closed_;
      }
      if (closed_) {
        return 0;
      }
      moved = MovePrefixLocked(items, begin);
    }
    if (moved == 1) {
      not_empty_.notify_one();
    } else if (moved > 1) {
      not_empty_.notify_all();
    }
    return moved;
  }

  MailboxPush TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return MailboxPush::kClosed;
      }
      if (size_ >= capacity_) {
        return MailboxPush::kFull;
      }
      AppendLocked(std::move(item));
    }
    not_empty_.notify_one();
    return MailboxPush::kOk;
  }

  /// Blocks while empty; returns false iff the mailbox is closed and fully
  /// drained (the consumer's signal to exit its loop).
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) {
      return false;  // Closed and drained.
    }
    PopFrontLocked(out);
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Blocking batch drain: waits until at least one message is available
  /// (or the box is closed and drained), then moves the *entire* queue into
  /// `out` under one lock acquisition — the shard/root hot paths pay one
  /// mutex round trip and one producer wake-up per burst instead of one per
  /// message. Appends to `out`; returns the number of messages moved (0 =
  /// closed and drained, the consumer's exit signal). FIFO order and the
  /// per-producer ordering guarantee are preserved: the batch is exactly
  /// the queue's front-to-back contents. When `out` is empty and one
  /// segment holds the whole queue, its buffer is swapped into `out` and
  /// `out`'s old buffer is kept for the next producer.
  size_t PopAll(std::vector<T>* out) {
    size_t moved = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
      moved = DrainLocked(out);
    }
    if (moved > 0) {
      // Every producer blocked on capacity can now make progress.
      not_full_.notify_all();
    }
    return moved;
  }

  /// PopAll with a deadline: waits at most `timeout_ms` for the first
  /// message. Returns the number of messages moved; 0 with `*timed_out =
  /// true` means the deadline expired with the box still open and empty —
  /// the caller's cue to probe for a dead producer (crash detection) —
  /// while 0 with `*timed_out = false` means closed and drained, the usual
  /// end-of-stream signal.
  size_t PopAllFor(std::vector<T>* out, int64_t timeout_ms, bool* timed_out) {
    size_t moved = 0;
    bool expired = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      expired = !not_empty_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                     [this] { return closed_ || size_ > 0; });
      moved = DrainLocked(out);
    }
    if (timed_out != nullptr) {
      *timed_out = expired && moved == 0;
    }
    if (moved > 0) {
      not_full_.notify_all();
    }
    return moved;
  }

  /// Non-blocking batch drain; 0 when nothing is immediately available
  /// (which, unlike PopAll, says nothing about the box being closed).
  size_t TryPopAll(std::vector<T>* out) {
    size_t moved = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      moved = DrainLocked(out);
    }
    if (moved > 0) {
      not_full_.notify_all();
    }
    return moved;
  }

  /// Non-blocking Pop; false when nothing is immediately available.
  bool TryPop(T* out) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (size_ == 0) {
        return false;
      }
      PopFrontLocked(out);
    }
    not_full_.notify_one();
    return true;
  }

  /// Rejects future pushes and wakes every blocked thread. Idempotent.
  /// Already-enqueued messages stay poppable (drain-on-shutdown). The spare
  /// buffers are released: no producer will need one again.
  void Close() {
    std::vector<std::vector<T>> spares;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      spares.swap(spares_);
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  size_t capacity() const { return capacity_; }

 private:
  /// Size of the segments single pushes fill: small, so a trickle of
  /// single messages never holds a large buffer.
  static constexpr size_t kSegmentBytes = 2048;
  /// Smallest batch PushAll enqueues by move rather than item by item.
  static constexpr size_t kWholeBatchBytes = 256 * 1024;
  /// Drained batch buffers kept for the next producer; the largest stay.
  static constexpr size_t kMaxSpares = 4;
  /// Popped-empty segments tolerated at the front of segments_ before the
  /// list is compacted.
  static constexpr size_t kCompactSegments = 32;

  struct Segment {
    std::vector<T> items;
    size_t head = 0;  ///< Next unpopped item.
  };

  /// Items per small segment, bounded by the box capacity so a tiny box
  /// of large messages never reserves more than it can hold.
  size_t SegmentItems() const {
    return std::min(capacity_, std::max<size_t>(1, kSegmentBytes / sizeof(T)));
  }

  /// Whether `items` travels as one segment by move: it must fit the free
  /// capacity, be at least kWholeBatchBytes, and fill at least half its
  /// buffer. Smaller batches are cheap to copy, and copying them into small
  /// segments keeps the queue's memory proportional to what it holds.
  /// Caller holds mu_.
  bool WholeBatchLocked(const std::vector<T>& items) const {
    return items.size() <= capacity_ - size_ &&
           items.size() * sizeof(T) >= kWholeBatchBytes &&
           2 * items.size() >= items.capacity();
  }

  /// Appends one item to the back segment if it is a small segment with
  /// room, else to a new small segment. Batch segments are never grown.
  /// Caller holds mu_ and has checked capacity.
  void AppendLocked(T&& item) {
    const size_t segment_items = SegmentItems();
    if (first_ == segments_.size() ||
        segments_.back().items.capacity() != segment_items ||
        segments_.back().items.size() == segment_items) {
      segments_.push_back(Segment{});
      segments_.back().items.reserve(segment_items);
    }
    segments_.back().items.push_back(std::move(item));
    ++size_;
  }

  /// Moves the longest prefix of items[begin..] that fits the free capacity
  /// item by item; returns its length. Caller holds mu_.
  size_t MovePrefixLocked(std::vector<T>* items, size_t begin) {
    size_t moved = 0;
    while (begin + moved < items->size() && size_ < capacity_) {
      AppendLocked(std::move((*items)[begin + moved]));
      ++moved;
    }
    return moved;
  }

  /// Pops the front item; caller holds mu_ and has checked size_ > 0.
  void PopFrontLocked(T* out) {
    Segment& front = segments_[first_];
    *out = std::move(front.items[front.head]);
    ++front.head;
    --size_;
    if (front.head < front.items.size()) {
      return;
    }
    RecycleLocked(std::move(front.items));
    ++first_;
    if (first_ == segments_.size()) {
      segments_.clear();
      first_ = 0;
    } else if (first_ >= kCompactSegments && 2 * first_ >= segments_.size()) {
      // Single pops that never empty the box: drop the dead prefix so the
      // segment list stays proportional to what is queued.
      segments_.erase(segments_.begin(),
                      segments_.begin() + static_cast<ptrdiff_t>(first_));
      first_ = 0;
    }
  }

  /// Moves the whole queue into `out`; caller holds mu_.
  size_t DrainLocked(std::vector<T>* out) {
    const size_t moved = size_;
    if (moved == 0) {
      return 0;
    }
    Segment& front = segments_[first_];
    if (out->empty() && front.head == 0 && front.items.size() == moved) {
      out->swap(front.items);
      RecycleLocked(std::move(front.items));
    } else {
      out->reserve(out->size() + moved);
      for (size_t s = first_; s < segments_.size(); ++s) {
        Segment& seg = segments_[s];
        std::move(seg.items.begin() + static_cast<ptrdiff_t>(seg.head),
                  seg.items.end(), std::back_inserter(*out));
        RecycleLocked(std::move(seg.items));
      }
    }
    segments_.clear();
    first_ = 0;
    size_ = 0;
    return moved;
  }

  /// Keeps a drained batch buffer for the next producer, preferring larger
  /// ones once the pool is full; any buffer not kept is freed here. Small
  /// segment buffers are never kept, and after Close nothing is: no
  /// producer will push again. Caller holds mu_.
  void RecycleLocked(std::vector<T> buffer) {
    if (closed_ || buffer.capacity() <= SegmentItems()) {
      return;
    }
    buffer.clear();
    if (spares_.size() < kMaxSpares) {
      spares_.push_back(std::move(buffer));
      return;
    }
    auto smallest = std::min_element(spares_.begin(), spares_.end(), ByCapacity);
    if (smallest->capacity() < buffer.capacity()) {
      *smallest = std::move(buffer);
    }
  }

  /// Hands the largest spare buffer (empty if none) to a producer whose
  /// batch was just enqueued by move. Caller holds mu_.
  std::vector<T> TakeSpareLocked() {
    if (spares_.empty()) {
      return {};
    }
    std::iter_swap(std::max_element(spares_.begin(), spares_.end(), ByCapacity),
                   spares_.end() - 1);
    std::vector<T> buffer = std::move(spares_.back());
    spares_.pop_back();
    return buffer;
  }

  static bool ByCapacity(const std::vector<T>& a, const std::vector<T>& b) {
    return a.capacity() < b.capacity();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  /// Queued segments are segments_[first_..]; the prefix was popped empty.
  std::vector<Segment> segments_;
  size_t first_ = 0;
  size_t size_ = 0;  ///< Queued items across all segments.
  std::vector<std::vector<T>> spares_;
  bool closed_ = false;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_MAILBOX_H_
