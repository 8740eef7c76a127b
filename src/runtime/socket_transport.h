#ifndef DCV_RUNTIME_SOCKET_TRANSPORT_H_
#define DCV_RUNTIME_SOCKET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "runtime/mailbox.h"
#include "runtime/transport.h"
#include "runtime/wire.h"

namespace dcv {

/// TCP implementation of the Transport interface: the coordinator process
/// listens and accepts exactly one connection per worker process; site
/// workers connect, identify themselves with a versioned handshake
/// (wire.h), and then exchange length-prefixed Envelope frames.
///
/// Backpressure mirrors ThreadTransport: every connection owns a bounded
/// send-queue Mailbox with the same capacity formula as the in-process
/// inboxes, so SendBatch blocks when the peer falls behind (the TCP socket adds
/// kernel-buffer slack but never unbounded memory). A writer thread drains
/// each send queue onto the socket; a reader thread decodes frames into
/// the owner's inbox.
///
/// Lifecycle and failure semantics:
///  * Connect retries with bounded attempts and exponential backoff;
///    Listen/AcceptWorkers bound the wait per expected connection. Both
///    surface in SocketStats (and "runtime/socket/*" obs counters).
///  * Without reconnection (the default), a peer closing its stream (EOF)
///    closes this side's inbox: blocked receivers drain and then observe
///    transport-closed, exactly like ThreadTransport::Shutdown. Mid-run
///    resets count as `disconnects`.
///  * Shutdown flushes the send queues (writers drain the bounded boxes
///    before the sockets half-close), so a graceful kShutdown broadcast is
///    never lost.
///
/// Mid-run reconnection (Options::allow_reconnect): a lost connection
/// parks this side instead of closing the inboxes. Every envelope frame
/// carries a per-direction sequence number and each writer retains a
/// bounded ring of sent frames (only with reconnection on — nothing else
/// reads it); a returning worker handshakes with a
/// bumped Hello generation (stale connections are fenced off) and each
/// side replays exactly the suffix the peer missed, deduplicating replays
/// by sequence number. The coordinator keeps an acceptor thread running so
/// the resume handshake can land at any time; the worker side actively
/// redials. Senders simply block on the bounded send queues during the
/// outage, so no envelope is ever lost — the run resumes bit-identically.
class SocketTransport : public Transport {
 public:
  struct Options {
    int accept_timeout_ms = 30000;  ///< Per expected worker connection.
    int connect_timeout_ms = 5000;  ///< Per connect() attempt.
    int connect_attempts = 10;      ///< Bounded reconnect budget.
    int connect_backoff_ms = 100;   ///< Doubles per retry, capped at 2 s.
    int io_timeout_ms = 30000;      ///< Handshake reads + steady-state sends.
    size_t coordinator_capacity = 0;  ///< 0 = auto (2 * num_sites + 16).
    size_t worker_capacity = 0;       ///< 0 = auto (4 * ceil(sites/workers) + 8).
    bool virtual_time = true;  ///< Coordinator role: mode pushed to workers.

    /// Coordinator role: shard-coordinator fan-in. Reader threads route
    /// each inbound envelope to shard ShardOf(e.from)'s inbox (contiguous
    /// balanced ranges, shard_layout.h). Coordinator-local: the wire
    /// format and the worker handshake are unchanged, workers neither know
    /// nor care how the coordinator process is sharded internally.
    int num_shards = 1;

    /// Survive a dropped worker connection: park instead of closing the
    /// inboxes, accept/redial a resume handshake, replay the missed frame
    /// suffix. Both sides must enable it (the worker redials, the
    /// coordinator keeps accepting).
    bool allow_reconnect = false;
    int reconnect_window_ms = 5000;  ///< Park budget before giving up.
    int reconnect_grace_ms = 100;    ///< Worker delay before redialing, so a
                                     ///< graceful shutdown is not mistaken
                                     ///< for a crash.
    size_t replay_capacity = 4096;   ///< Sent-frame ring per connection
                                     ///< (kept only with allow_reconnect).

    obs::MetricsRegistry* metrics = nullptr;
    /// Optional distributed-trace sink: reconnect/replay lifecycle events
    /// are recorded here with wall-clock timestamps.
    obs::TraceRecorder* recorder = nullptr;
  };

  /// Coordinator role: binds and listens on `port` (0 = ephemeral; see
  /// port()). Returns before any worker has connected so the caller can
  /// publish the port; call AcceptWorkers() to complete the fabric.
  static Result<std::unique_ptr<SocketTransport>> Listen(
      int num_sites, int num_workers, int port, const Options& options);

  /// Coordinator role: accepts and handshakes all `num_workers`
  /// connections, then starts the per-connection reader/writer threads
  /// (plus, with allow_reconnect, the resume acceptor thread).
  /// Fails on accept timeout, handshake mismatch, or duplicate workers.
  Status AcceptWorkers();

  /// Worker role: connects to the coordinator (bounded retries) and
  /// handshakes as `worker`. The run mode the coordinator advertises is
  /// available as virtual_time() afterwards.
  static Result<std::unique_ptr<SocketTransport>> Connect(
      const std::string& host, int port, int worker, int num_sites,
      int num_workers, const Options& options);

  ~SocketTransport() override;

  /// Bound listen port (coordinator role; resolves port 0 to the actual).
  int port() const { return port_; }

  /// Worker role: the run mode from the coordinator's handshake ack.
  bool virtual_time() const { return virtual_time_; }

  /// Worker role: the newest shard-layout version adopted from a
  /// kLayoutUpdate push (0 until one arrives).
  uint32_t layout_version() const {
    return adopted_layout_version_.load(std::memory_order_acquire);
  }

  SocketStats stats() const;

  /// Worker role: estimated coordinator-minus-worker wall-clock offset in
  /// microseconds, from the NTP-style Hello/HelloAck timestamps (refreshed
  /// on every resume handshake). 0 until a handshake completes.
  int64_t clock_offset_us() const {
    return clock_offset_us_.load(std::memory_order_relaxed);
  }

  /// Worker role: serializes and sends a telemetry snapshot directly on the
  /// connection (outside the envelope send queue — telemetry is unsequenced
  /// and must never enter the replay ring). Safe to call concurrently with
  /// envelope traffic; fails if the connection is down (the next push or the
  /// final flush supersedes a lost snapshot anyway).
  Status SendTelemetry(const TelemetryFrame& t);

  /// Coordinator role: latest telemetry frame received from each worker
  /// (cumulative snapshots, so only the newest matters). Entries are
  /// returned worker-ascending; workers that never pushed are absent.
  std::vector<TelemetryFrame> TakeWorkerTelemetry();

  /// Coordinator role: blocks until every worker's final_flush telemetry
  /// frame has arrived or `timeout_ms` elapses. Call after the protocol
  /// run completes and before Shutdown(), so the reader threads are still
  /// consuming the stream tail. Returns false on timeout.
  bool WaitForFinalTelemetry(int timeout_ms);

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

  /// Coordinator role: broadcasts the layout as a kLayoutUpdate frame,
  /// waits for every worker's kLayoutAck (the fence), then swaps the
  /// routing layout. Shape must match; version must be strictly newer.
  Status UpdateLayout(const ShardLayout& next) override;

  /// Coordinator role, chaos hook: hard-severs worker `w`'s TCP connection
  /// (both directions), simulating a crash or partition. With
  /// allow_reconnect on both sides the fabric heals via the resume
  /// protocol; without it the run aborts exactly as a real crash would.
  Status InjectPeerFailure(int worker) override;

 private:
  enum class Role { kCoordinator, kWorker };

  /// One TCP connection: the socket, its bounded send queue, and the two
  /// threads that pump it. Coordinator role has one per worker; worker
  /// role has exactly one (index 0). Reconnection state lives here too:
  /// `generation` names the fd incarnation (bumped by each successful
  /// resume; parked threads wake on the bump), the writer-side ring holds
  /// the replayable sent-frame suffix, and `last_seq_received` is the
  /// receive direction's dedup high-water mark.
  struct Connection {
    std::mutex mu;  ///< Guards fd (for readers), generation, residuals.
    std::condition_variable cv;  ///< Signals generation bumps + shutdown.
    int fd = -1;
    uint32_t generation = 0;
    /// Bytes the handshake read past its own frame (TCP coalescing can put
    /// the first data frames in the same segment as the hello/ack); the
    /// reader thread consumes these before touching the socket.
    std::string residual;
    std::unique_ptr<Mailbox<Envelope>> send_box;
    std::thread reader;
    std::thread writer;

    /// Send direction (guarded by write_mu, which also serializes every
    /// socket write so a resume replay never interleaves mid-frame).
    std::mutex write_mu;
    uint64_t next_send_seq = 1;
    std::deque<std::pair<uint64_t, std::string>> sent_ring;

    /// Receive direction: highest envelope seq seen (reader-owned, read by
    /// the resume handshake to tell the peer where to resume).
    std::atomic<uint64_t> last_seq_received{0};
  };

  SocketTransport(Role role, int num_sites, int num_workers, int worker,
                  const Options& options);

  const ShardLayout* current() const {
    return layout_ptr_.load(std::memory_order_acquire);
  }

  void StartConnection(size_t index, int fd, std::string residual);
  void ReaderLoop(size_t index);
  void WriterLoop(size_t index);
  void AcceptorLoop();

  /// Replays the sent-ring suffix the peer missed onto `fd`, then installs
  /// it as the connection's live socket (bumping the generation and waking
  /// parked reader/writer). False if the gap exceeds the ring or the
  /// replay write fails; the caller closes `fd`.
  bool InstallResumedFd(Connection* c, int fd, uint32_t generation,
                        uint64_t peer_last_seq, std::string residual);

  /// Parks until the connection has a newer incarnation than `seen_gen`.
  /// Worker role actively redials the coordinator while parked. True once
  /// resumed (with `*residual` holding the resume handshake's tail); false
  /// on shutdown or window expiry.
  bool AwaitResume(size_t index, uint32_t seen_gen, std::string* residual);

  /// Worker role: one redial + resume-handshake attempt. On success the
  /// new fd is installed and `*residual` receives the handshake tail.
  bool TryWorkerResume(Connection* c, std::string* residual);

  /// End-of-stream on any connection (or a fatal write error) closes every
  /// shard inbox: no shard can make progress once a worker is gone, and
  /// blocked receivers must drain out exactly as in ThreadTransport.
  void CloseInboxes();

  /// Severs `fd` and queues it for close at Shutdown (closing immediately
  /// could race a thread still blocked in a syscall on it).
  void RetireFd(int fd);

  const Role role_;
  const int num_sites_;
  const int num_workers_;
  const int worker_;  ///< Worker role: this process's worker index.
  Options options_;

  /// Routing layout (coordinator role; 1 shard in worker role). Reads are
  /// lock-free; UpdateLayout retires superseded layouts into layouts_.
  std::mutex layout_mu_;
  std::vector<std::unique_ptr<ShardLayout>> layouts_;
  std::atomic<const ShardLayout*> layout_ptr_{nullptr};
  std::condition_variable layout_cv_;          ///< Waits for worker acks.
  std::vector<uint32_t> layout_acked_;         ///< Per worker, by layout_mu_.
  std::atomic<uint32_t> adopted_layout_version_{0};  ///< Worker role.

  int listen_fd_ = -1;
  int port_ = 0;
  bool virtual_time_ = true;
  std::string peer_host_;  ///< Worker role: coordinator address for redial.
  int peer_port_ = 0;

  /// Coordinator role: one inbox per shard coordinator, fed by the reader
  /// threads routing on ShardOf(e.from). Worker role: exactly one — this
  /// worker's inbox.
  std::vector<std::unique_ptr<Mailbox<Envelope>>> inboxes_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread acceptor_;  ///< Resume acceptor (coordinator, reconnect on).

  std::mutex retired_mu_;
  std::vector<int> retired_fds_;

  std::atomic<bool> shutting_down_{false};
  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;

  /// Coordinator role: latest-wins telemetry store, one slot per worker.
  std::mutex telemetry_mu_;
  std::condition_variable telemetry_cv_;
  std::vector<TelemetryFrame> worker_telemetry_;
  std::vector<uint8_t> worker_telemetry_valid_;
  std::vector<uint8_t> worker_telemetry_final_;

  /// Worker role: handshake-estimated clock offset (coordinator - worker).
  std::atomic<int64_t> clock_offset_us_{0};

  // Wire-level counters (stats() snapshot + optional obs mirror).
  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> envelopes_sent_{0};
  std::atomic<int64_t> envelopes_received_{0};
  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> bytes_received_{0};
  std::atomic<int64_t> connect_attempts_{0};
  std::atomic<int64_t> connect_retries_{0};
  std::atomic<int64_t> accept_timeouts_{0};
  std::atomic<int64_t> decode_errors_{0};
  std::atomic<int64_t> disconnects_{0};
  std::atomic<int64_t> truncated_frames_{0};
  std::atomic<int64_t> reconnects_{0};
  std::atomic<int64_t> replayed_frames_{0};
  std::atomic<int64_t> duplicate_frames_{0};
  obs::Counter* c_frames_tx_ = nullptr;
  obs::Counter* c_frames_rx_ = nullptr;
  obs::Counter* c_envelopes_tx_ = nullptr;
  obs::Counter* c_envelopes_rx_ = nullptr;
  obs::Counter* c_bytes_tx_ = nullptr;
  obs::Counter* c_bytes_rx_ = nullptr;
  obs::Counter* c_connect_attempts_ = nullptr;
  obs::Counter* c_connect_retries_ = nullptr;
  obs::Counter* c_accept_timeouts_ = nullptr;
  obs::Counter* c_decode_errors_ = nullptr;
  obs::Counter* c_disconnects_ = nullptr;
  obs::Counter* c_truncated_frames_ = nullptr;
  obs::Counter* c_reconnects_ = nullptr;
  obs::Counter* c_replayed_frames_ = nullptr;
  obs::Counter* c_duplicate_frames_ = nullptr;
};

}  // namespace dcv

#endif  // DCV_RUNTIME_SOCKET_TRANSPORT_H_
