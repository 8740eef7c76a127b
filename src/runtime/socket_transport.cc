#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace dcv {
namespace {

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSendTimeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) {
    return;
  }
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes the whole buffer; false on any error (including send timeout).
bool WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking read of exactly one frame, bounded by `timeout_ms` total.
/// Handshake-only: steady-state reads go through ReaderLoop.
Result<WireFrame> ReadFrame(int fd, int timeout_ms, FrameReader* reader) {
  WireFrame frame;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    DCV_ASSIGN_OR_RETURN(bool ready, reader->Next(&frame));
    if (ready) {
      return frame;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return ResourceExhaustedError("timed out waiting for handshake frame");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    pollfd p{fd, POLLIN, 0};
    int rc = ::poll(&p, 1, std::max(1, wait_ms));
    if (rc < 0 && errno != EINTR) {
      return ErrnoError("poll during handshake");
    }
    if (rc <= 0) {
      continue;
    }
    uint8_t buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return InternalError("peer closed the connection during handshake");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return ErrnoError("recv during handshake");
    }
    reader->Append(buf, static_cast<size_t>(n));
  }
}

/// One non-blocking connect attempt bounded by `timeout_ms`; returns the
/// connected fd (restored to blocking mode) or an error.
Result<int> ConnectOnce(const sockaddr_in& addr, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return ErrnoError("socket");
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return ErrnoError("connect");
  }
  if (rc != 0) {
    pollfd p{fd, POLLOUT, 0};
    rc = ::poll(&p, 1, timeout_ms);
    if (rc <= 0) {
      ::close(fd);
      return ResourceExhaustedError("connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      errno = err != 0 ? err : errno;
      return ErrnoError("connect");
    }
  }
  // Back to blocking mode for the reader/writer threads.
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
  return fd;
}

/// Wall-clock microseconds (system_clock): the clock-offset handshake and
/// merged-trace timestamps compare across processes, so steady_clock (an
/// arbitrary per-process epoch) would be meaningless here.
int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

size_t AutoWorkerCapacity(int num_sites, int num_workers) {
  size_t per_worker =
      (static_cast<size_t>(num_sites) + static_cast<size_t>(num_workers) - 1) /
      static_cast<size_t>(num_workers);
  return 4 * per_worker + 8;
}

}  // namespace

SocketTransport::SocketTransport(Role role, int num_sites, int num_workers,
                                 int worker, const Options& options)
    : role_(role),
      num_sites_(num_sites),
      num_workers_(num_workers),
      worker_(worker),
      options_(options) {
  ShardLayout lay;
  lay.num_sites = num_sites;
  lay.num_shards = role == Role::kCoordinator
                       ? std::max(1, options_.num_shards)
                       : 1;  // Workers never see the shard split.
  layouts_.push_back(std::make_unique<ShardLayout>(lay));
  layout_ptr_.store(layouts_.back().get(), std::memory_order_release);
  // Worker-role send queues size for the WHOLE coordinator fan-in (a
  // worker's sites can span several shards); coordinator-role shard
  // inboxes size for their own shard's fan-in only.
  const size_t coordinator_capacity =
      options_.coordinator_capacity != 0
          ? options_.coordinator_capacity
          : 2 * static_cast<size_t>(num_sites) + 16;
  const size_t shard_capacity =
      options_.coordinator_capacity != 0
          ? options_.coordinator_capacity
          : 2 * static_cast<size_t>(lay.MaxShardSites()) + 16;
  const size_t worker_capacity =
      options_.worker_capacity != 0
          ? options_.worker_capacity
          : AutoWorkerCapacity(num_sites, num_workers);
  if (role_ == Role::kCoordinator) {
    inboxes_.reserve(static_cast<size_t>(lay.num_shards));
    for (int s = 0; s < lay.num_shards; ++s) {
      inboxes_.push_back(std::make_unique<Mailbox<Envelope>>(shard_capacity));
    }
    layout_acked_.assign(static_cast<size_t>(num_workers), 0);
    for (int w = 0; w < num_workers; ++w) {
      conns_.push_back(std::make_unique<Connection>());
      // The coordinator's queue toward one worker plays the worker-inbox
      // role, so it inherits that capacity (deadlock-freedom invariant).
      conns_.back()->send_box =
          std::make_unique<Mailbox<Envelope>>(worker_capacity);
    }
  } else {
    inboxes_.push_back(std::make_unique<Mailbox<Envelope>>(worker_capacity));
    conns_.push_back(std::make_unique<Connection>());
    // The worker's queue toward the coordinator mirrors the coordinator
    // inbox: sites block here under backpressure, exactly as they block on
    // the shared inbox in ThreadTransport.
    conns_.back()->send_box =
        std::make_unique<Mailbox<Envelope>>(coordinator_capacity);
  }
  if (role_ == Role::kCoordinator) {
    worker_telemetry_.resize(static_cast<size_t>(num_workers));
    worker_telemetry_valid_.assign(static_cast<size_t>(num_workers), 0);
    worker_telemetry_final_.assign(static_cast<size_t>(num_workers), 0);
  }
  if (options_.metrics != nullptr) {
    // Every SocketStats field has a registry twin so --metrics-json covers
    // the wire layer without the "socket:" side channel.
    c_frames_tx_ = options_.metrics->counter("runtime/socket/frames_tx");
    c_frames_rx_ = options_.metrics->counter("runtime/socket/frames_rx");
    c_envelopes_tx_ = options_.metrics->counter("runtime/socket/envelopes_tx");
    c_envelopes_rx_ = options_.metrics->counter("runtime/socket/envelopes_rx");
    c_bytes_tx_ = options_.metrics->counter("runtime/socket/bytes_tx");
    c_bytes_rx_ = options_.metrics->counter("runtime/socket/bytes_rx");
    c_connect_attempts_ =
        options_.metrics->counter("runtime/socket/connect_attempts");
    c_connect_retries_ =
        options_.metrics->counter("runtime/socket/connect_retries");
    c_accept_timeouts_ =
        options_.metrics->counter("runtime/socket/accept_timeouts");
    c_decode_errors_ =
        options_.metrics->counter("runtime/socket/decode_errors");
    c_disconnects_ = options_.metrics->counter("runtime/socket/disconnects");
    c_truncated_frames_ =
        options_.metrics->counter("runtime/socket/truncated_frames");
    c_reconnects_ = options_.metrics->counter("runtime/socket/reconnects");
    c_replayed_frames_ =
        options_.metrics->counter("runtime/socket/replayed_frames");
    c_duplicate_frames_ =
        options_.metrics->counter("runtime/socket/duplicate_frames");
  }
}

SocketTransport::~SocketTransport() { Shutdown(); }

Result<std::unique_ptr<SocketTransport>> SocketTransport::Listen(
    int num_sites, int num_workers, int port, const Options& options) {
  if (num_sites < 1) {
    return InvalidArgumentError("socket transport needs at least one site");
  }
  if (num_workers < 1 || num_workers > num_sites) {
    return InvalidArgumentError("num_workers must be in [1, num_sites]");
  }
  if (port < 0 || port > 65535) {
    return InvalidArgumentError("listen port must be in [0, 65535]");
  }
  // Same validation the layout itself enforces; fail before binding.
  DCV_RETURN_IF_ERROR(
      MakeShardLayout(num_sites, std::max(1, options.num_shards)).status());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoError("socket");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = ErrnoError("bind to port " + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, num_workers) != 0) {
    Status s = ErrnoError("listen");
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status s = ErrnoError("getsockname");
    ::close(fd);
    return s;
  }
  auto transport = std::unique_ptr<SocketTransport>(new SocketTransport(
      Role::kCoordinator, num_sites, num_workers, /*worker=*/-1, options));
  transport->listen_fd_ = fd;
  transport->port_ = static_cast<int>(ntohs(bound.sin_port));
  transport->virtual_time_ = options.virtual_time;
  return transport;
}

Status SocketTransport::AcceptWorkers() {
  if (role_ != Role::kCoordinator || listen_fd_ < 0) {
    return FailedPreconditionError("AcceptWorkers needs a listening transport");
  }
  std::vector<int> fds(static_cast<size_t>(num_workers_), -1);
  std::vector<std::string> residuals(static_cast<size_t>(num_workers_));
  auto reject_all = [&fds](Status s) {
    for (int fd : fds) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    return s;
  };
  for (int pending = num_workers_; pending > 0; --pending) {
    pollfd p{listen_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, options_.accept_timeout_ms);
    if (rc < 0 && errno != EINTR) {
      return reject_all(ErrnoError("poll on listen socket"));
    }
    if (rc <= 0) {
      accept_timeouts_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_accept_timeouts_, 1);
      return reject_all(ResourceExhaustedError(
          "timed out waiting for worker connections (" +
          std::to_string(num_workers_ - pending) + " of " +
          std::to_string(num_workers_) + " connected)"));
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return reject_all(ErrnoError("accept"));
    }
    SetNoDelay(fd);
    SetSendTimeout(fd, options_.io_timeout_ms);

    FrameReader reader;
    auto frame = ReadFrame(fd, options_.io_timeout_ms, &reader);
    const int64_t t2 = WallUs();  // Hello receive time (clock-offset t2).
    std::string reply;
    HelloAckFrame ack;
    ack.num_sites = num_sites_;
    ack.num_workers = num_workers_;
    ack.virtual_time = virtual_time_ ? 1 : 0;
    Status verdict = OkStatus();
    int worker = -1;
    if (!frame.ok()) {
      verdict = InternalError("worker handshake failed: " +
                              std::string(frame.status().message()));
    } else if (frame->type != FrameType::kHello) {
      verdict = InternalError("expected hello frame, got another type");
    } else {
      const HelloFrame& hello = frame->hello;
      worker = hello.worker;
      if (hello.num_sites != num_sites_ || hello.num_workers != num_workers_) {
        verdict = InvalidArgumentError(
            "worker fabric shape mismatch: worker says " +
            std::to_string(hello.num_sites) + " sites / " +
            std::to_string(hello.num_workers) + " workers, coordinator has " +
            std::to_string(num_sites_) + " / " + std::to_string(num_workers_));
      } else if (worker < 0 || worker >= num_workers_) {
        verdict = InvalidArgumentError("worker index " +
                                       std::to_string(worker) +
                                       " out of range");
      } else if (fds[static_cast<size_t>(worker)] >= 0) {
        verdict = InvalidArgumentError("worker " + std::to_string(worker) +
                                       " connected twice");
      }
    }
    ack.ok = verdict.ok() ? 1 : 0;
    if (frame.ok() && frame->type == FrameType::kHello) {
      ack.t1_us = frame->hello.t1_us;
    }
    ack.t2_us = t2;
    ack.t3_us = WallUs();
    AppendHelloAckFrame(ack, &reply);
    WriteAll(fd, reply.data(), reply.size());
    if (!verdict.ok()) {
      ::close(fd);
      return reject_all(verdict);
    }
    fds[static_cast<size_t>(worker)] = fd;
    residuals[static_cast<size_t>(worker)] = reader.TakeBuffered();
  }
  for (size_t w = 0; w < fds.size(); ++w) {
    StartConnection(w, fds[w], std::move(residuals[w]));
  }
  if (options_.allow_reconnect) {
    acceptor_ = std::thread([this] { AcceptorLoop(); });
  }
  return OkStatus();
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const std::string& host, int port, int worker, int num_sites,
    int num_workers, const Options& options) {
  if (num_sites < 1 || num_workers < 1 || num_workers > num_sites) {
    return InvalidArgumentError("bad fabric shape");
  }
  if (worker < 0 || worker >= num_workers) {
    return InvalidArgumentError("worker index out of range");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("cannot parse host address '" + host +
                                "' (dotted IPv4 expected)");
  }

  auto transport = std::unique_ptr<SocketTransport>(new SocketTransport(
      Role::kWorker, num_sites, num_workers, worker, options));
  transport->peer_host_ = host;
  transport->peer_port_ = port;
  int fd = -1;
  int backoff = std::max(1, options.connect_backoff_ms);
  Status last = OkStatus();
  for (int attempt = 0; attempt < std::max(1, options.connect_attempts);
       ++attempt) {
    if (attempt > 0) {
      transport->connect_retries_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(transport->c_connect_retries_, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, 2000);
    }
    transport->connect_attempts_.fetch_add(1, std::memory_order_relaxed);
    DCV_OBS_COUNT(transport->c_connect_attempts_, 1);
    auto attempt_fd = ConnectOnce(addr, options.connect_timeout_ms);
    if (attempt_fd.ok()) {
      fd = *attempt_fd;
      break;
    }
    last = attempt_fd.status();
  }
  if (fd < 0) {
    return InternalError("could not connect to " + host + ":" +
                         std::to_string(port) + " after " +
                         std::to_string(std::max(1, options.connect_attempts)) +
                         " attempts: " + std::string(last.message()));
  }
  SetNoDelay(fd);
  SetSendTimeout(fd, options.io_timeout_ms);

  HelloFrame hello;
  hello.worker = worker;
  hello.num_workers = num_workers;
  hello.num_sites = num_sites;
  hello.t1_us = WallUs();
  std::string out;
  AppendHelloFrame(hello, &out);
  if (!WriteAll(fd, out.data(), out.size())) {
    ::close(fd);
    return ErrnoError("sending hello");
  }
  FrameReader reader;
  auto ack = ReadFrame(fd, options.io_timeout_ms, &reader);
  const int64_t t4 = WallUs();  // Ack receive time (clock-offset t4).
  if (!ack.ok()) {
    ::close(fd);
    return ack.status();
  }
  if (ack->type != FrameType::kHelloAck) {
    ::close(fd);
    return InternalError("expected hello-ack frame");
  }
  if (ack->hello_ack.ok == 0) {
    ::close(fd);
    return InvalidArgumentError(
        "coordinator rejected the handshake (shape mismatch or duplicate "
        "worker)");
  }
  transport->virtual_time_ = ack->hello_ack.virtual_time != 0;
  if (ack->hello_ack.t2_us != 0) {
    // NTP-style offset: assuming symmetric one-way delays, the coordinator
    // clock reads (t2 - t1 + t3 - t4) / 2 ahead of the worker clock.
    const HelloAckFrame& a = ack->hello_ack;
    transport->clock_offset_us_.store(
        ((a.t2_us - hello.t1_us) + (a.t3_us - t4)) / 2,
        std::memory_order_relaxed);
  }
  // TCP can coalesce the ack with the coordinator's first data frames
  // (e.g. the initial threshold sync); hand the tail to the reader thread.
  transport->StartConnection(0, fd, reader.TakeBuffered());
  return transport;
}

void SocketTransport::StartConnection(size_t index, int fd,
                                      std::string residual) {
  Connection& c = *conns_[index];
  {
    std::lock_guard<std::mutex> lock(c.mu);
    c.fd = fd;
    c.residual = std::move(residual);
  }
  c.reader = std::thread([this, index] { ReaderLoop(index); });
  c.writer = std::thread([this, index] { WriterLoop(index); });
}

void SocketTransport::ReaderLoop(size_t index) {
  Connection& c = *conns_[index];
  uint8_t buf[65536];
  std::string residual;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    residual = std::move(c.residual);
    c.residual.clear();
  }

  // Decodes everything buffered in `reader`; false = drop the connection.
  // The frame and the per-shard groups live as long as the connection:
  // PushAll hands each batch vector back empty with a buffer to refill,
  // so steady traffic allocates nothing here.
  WireFrame frame;
  std::vector<std::vector<Envelope>> per_shard(inboxes_.size());
  auto drain_frames = [&](FrameReader& reader) {
    for (;;) {
      auto r = reader.Next(&frame);
      if (!r.ok()) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        DCV_OBS_COUNT(c_decode_errors_, 1);
        return false;
      }
      if (!*r) {
        return true;
      }
      if (frame.type == FrameType::kLayoutUpdate) {
        if (role_ != Role::kWorker) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          DCV_OBS_COUNT(c_decode_errors_, 1);
          continue;
        }
        // Adopt the pushed layout version and ack it (the coordinator's
        // fence waits for every worker's ack before switching routing).
        adopted_layout_version_.store(frame.layout.version,
                                      std::memory_order_release);
        LayoutAckFrame la;
        la.version = frame.layout.version;
        std::string ack_bytes;
        AppendLayoutAckFrame(la, &ack_bytes);
        std::lock_guard<std::mutex> wl(c.write_mu);
        if (c.fd >= 0) {
          WriteAll(c.fd, ack_bytes.data(), ack_bytes.size());
        }
        continue;
      }
      if (frame.type == FrameType::kLayoutAck) {
        if (role_ != Role::kCoordinator) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          DCV_OBS_COUNT(c_decode_errors_, 1);
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(layout_mu_);
          layout_acked_[index] = frame.layout_ack.version;
        }
        layout_cv_.notify_all();
        continue;
      }
      if (frame.type == FrameType::kTelemetry) {
        if (role_ != Role::kCoordinator || frame.telemetry.worker < 0 ||
            frame.telemetry.worker >= num_workers_) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          DCV_OBS_COUNT(c_decode_errors_, 1);
          continue;
        }
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        DCV_OBS_COUNT(c_frames_rx_, 1);
        // Snapshots are cumulative, so latest-wins per worker: overwrite
        // the slot and remember whether the worker's shutdown flush landed.
        const size_t slot = static_cast<size_t>(frame.telemetry.worker);
        {
          std::lock_guard<std::mutex> lock(telemetry_mu_);
          worker_telemetry_[slot] = std::move(frame.telemetry);
          worker_telemetry_valid_[slot] = 1;
          if (worker_telemetry_[slot].final_flush != 0) {
            worker_telemetry_final_[slot] = 1;
          }
        }
        telemetry_cv_.notify_all();
        continue;
      }
      if (frame.type != FrameType::kEnvelope &&
          frame.type != FrameType::kEnvelopeBatch) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        DCV_OBS_COUNT(c_decode_errors_, 1);
        continue;  // Stray handshake frame mid-run; drop it.
      }
      // Sequence dedup: a resume replays the suffix the peer thinks we
      // missed; anything at or below our high-water mark already arrived
      // on the previous incarnation. A batch frame carries one seq for all
      // its envelopes, so the burst is accepted or dropped whole.
      if (frame.seq != 0) {
        if (frame.seq <= c.last_seq_received.load(std::memory_order_relaxed)) {
          duplicate_frames_.fetch_add(1, std::memory_order_relaxed);
          DCV_OBS_COUNT(c_duplicate_frames_, 1);
          continue;
        }
        c.last_seq_received.store(frame.seq, std::memory_order_relaxed);
      }
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_frames_rx_, 1);
      const int64_t envelopes =
          frame.type == FrameType::kEnvelopeBatch
              ? static_cast<int64_t>(frame.batch.size())
              : 1;
      envelopes_received_.fetch_add(envelopes, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_envelopes_rx_, envelopes);
      if (frame.type == FrameType::kEnvelopeBatch) {
        // Route the batch with one PushAll per destination inbox (one
        // mutex round trip per burst, same as the thread transport).
        if (role_ != Role::kCoordinator) {
          if (!inboxes_[0]->PushAll(&frame.batch)) {
            return false;  // Inbox closed: we are shutting down.
          }
          continue;
        }
        for (Envelope& env : frame.batch) {
          if (env.from < 0 || env.from >= num_sites_) {
            decode_errors_.fetch_add(1, std::memory_order_relaxed);
            DCV_OBS_COUNT(c_decode_errors_, 1);
            continue;
          }
          per_shard[static_cast<size_t>(ShardOf(env.from))].push_back(env);
        }
        for (size_t s = 0; s < per_shard.size(); ++s) {
          if (!per_shard[s].empty() &&
              !inboxes_[s]->PushAll(&per_shard[s])) {
            return false;
          }
        }
        continue;
      }
      size_t inbox = 0;
      if (role_ == Role::kCoordinator) {
        // Coordinator-bound traffic fans across the shard inboxes by
        // sender. A frame with an out-of-range sender has no shard; treat
        // it like any other malformed frame.
        if (frame.envelope.from < 0 || frame.envelope.from >= num_sites_) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          DCV_OBS_COUNT(c_decode_errors_, 1);
          continue;
        }
        inbox = static_cast<size_t>(ShardOf(frame.envelope.from));
      }
      if (!inboxes_[inbox]->Push(frame.envelope)) {
        return false;  // Inbox closed: we are shutting down.
      }
    }
  };

  // One outer iteration per connection incarnation: read until the stream
  // ends, then (with reconnection enabled) park for a resume and go again.
  for (;;) {
    int fd = -1;
    uint32_t gen = 0;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      fd = c.fd;
      gen = c.generation;
    }
    // A worker's decoder also refuses range commands for sites it does
    // not own (CheckRangeCommand) before they reach the engine.
    FrameReader reader(role_ == Role::kWorker
                           ? WireEndpoint{num_sites_, num_workers_, worker_}
                           : WireEndpoint{});
    bool clean = false;
    bool stream_ok = true;
    // Bytes the handshake read past its own frame come first: they are
    // earlier in the stream than anything recv() will return.
    if (!residual.empty()) {
      reader.Append(reinterpret_cast<const uint8_t*>(residual.data()),
                    residual.size());
      residual.clear();
      stream_ok = drain_frames(reader);
    }
    while (stream_ok) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) {
        clean = true;  // Peer finished sending: graceful end of stream.
        break;
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;  // Reset/abort — or our own Shutdown closed the socket.
      }
      bytes_received_.fetch_add(n, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_bytes_rx_, n);
      reader.Append(buf, static_cast<size_t>(n));
      stream_ok = drain_frames(reader);
    }
    if (stream_ok && !reader.Finish().ok()) {
      // The connection dropped inside a length-prefixed frame: a distinct
      // failure mode from both a clean end and a decode error. The partial
      // bytes are discarded; a resume replays the full frame.
      truncated_frames_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_truncated_frames_, 1);
      clean = false;
    }
    const bool down = shutting_down_.load(std::memory_order_relaxed);
    if (!clean && !down) {
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_disconnects_, 1);
    }
    if (down || !options_.allow_reconnect) {
      break;
    }
    if (!AwaitResume(index, gen, &residual)) {
      break;  // Window expired or shutdown: fail like a real crash.
    }
  }
  // End of stream with no resume coming means no more messages can arrive
  // on this connection; close the inboxes so blocked receivers drain and
  // exit, matching ThreadTransport's closed-and-drained contract.
  CloseInboxes();
  c.send_box->Close();
}

void SocketTransport::CloseInboxes() {
  for (auto& box : inboxes_) {
    box->Close();
  }
}

void SocketTransport::RetireFd(int fd) {
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(retired_mu_);
  retired_fds_.push_back(fd);
}

void SocketTransport::WriterLoop(size_t index) {
  Connection& c = *conns_[index];
  std::string frame;
  std::vector<Envelope> batch;
  Envelope e;
  for (;;) {
    if (!c.send_box->Pop(&e)) {
      break;  // Closed and drained: our side is done sending.
    }
    batch.clear();
    batch.push_back(e);
    // Coalesce whatever is already queued into one write (epoch barriers
    // broadcast N small messages back to back).
    while (batch.size() < kMaxBatchEnvelopes && c.send_box->TryPop(&e)) {
      batch.push_back(e);
    }
    bool wrote = false;
    uint32_t gen = 0;
    {
      std::lock_guard<std::mutex> wl(c.write_mu);
      {
        std::lock_guard<std::mutex> lock(c.mu);
        gen = c.generation;  // Incarnation this write lands on.
      }
      // A multi-envelope burst becomes ONE kEnvelopeBatch frame under one
      // sequence number; the whole frame is one sent-ring entry, so resume
      // replay and the peer's high-water-mark dedup treat the burst
      // atomically (never half-applied). A lone envelope keeps the v3
      // kEnvelope framing.
      frame.clear();
      if (batch.size() == 1) {
        AppendEnvelopeFrame(batch[0], &frame, c.next_send_seq);
      } else {
        AppendEnvelopeBatchFrame(batch.data(), batch.size(), &frame,
                                 c.next_send_seq);
      }
      if (options_.allow_reconnect) {
        // Only a resume reads the ring; without reconnection a copy of
        // every frame would be pure waste.
        c.sent_ring.emplace_back(c.next_send_seq, frame);
        while (c.sent_ring.size() > options_.replay_capacity) {
          c.sent_ring.pop_front();
        }
      }
      ++c.next_send_seq;
      wrote = c.fd >= 0 && WriteAll(c.fd, frame.data(), frame.size());
      if (wrote) {
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
        envelopes_sent_.fetch_add(static_cast<int64_t>(batch.size()),
                                  std::memory_order_relaxed);
        DCV_OBS_COUNT(c_envelopes_tx_, static_cast<int64_t>(batch.size()));
        bytes_sent_.fetch_add(static_cast<int64_t>(frame.size()),
                              std::memory_order_relaxed);
        DCV_OBS_COUNT(c_frames_tx_, 1);
        DCV_OBS_COUNT(c_bytes_tx_, static_cast<int64_t>(frame.size()));
      }
    }
    if (wrote) {
      continue;
    }
    // Write failed. With reconnection on the frames are already in the
    // sent ring, so a resume replays them — park for the new incarnation
    // instead of giving up.
    if (!shutting_down_.load(std::memory_order_relaxed)) {
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_disconnects_, 1);
    }
    bool resumed = false;
    if (options_.allow_reconnect &&
        !shutting_down_.load(std::memory_order_relaxed)) {
      std::unique_lock<std::mutex> lock(c.mu);
      c.cv.wait_for(lock,
                    std::chrono::milliseconds(options_.reconnect_window_ms +
                                              options_.reconnect_grace_ms),
                    [&] {
                      return shutting_down_.load(std::memory_order_relaxed) ||
                             c.generation != gen;
                    });
      resumed = !shutting_down_.load(std::memory_order_relaxed) &&
                c.generation != gen;
    }
    if (resumed) {
      continue;  // The installer replayed the failed frames already.
    }
    if (!shutting_down_.load(std::memory_order_relaxed)) {
      CloseInboxes();
    }
    c.send_box->Close();
    while (c.send_box->Pop(&e)) {
      // Drain so producers blocked in Push wake and see closed.
    }
    return;
  }
  // Send queue closed and drained. Half-close so the peer's reader sees a
  // clean end of stream once it drains.
  std::lock_guard<std::mutex> wl(c.write_mu);
  if (c.fd >= 0) {
    ::shutdown(c.fd, SHUT_WR);
  }
}

bool SocketTransport::InstallResumedFd(Connection* c, int fd,
                                       uint32_t generation,
                                       uint64_t peer_last_seq,
                                       std::string residual) {
  std::lock_guard<std::mutex> wl(c->write_mu);
  // The ring holds the sent-frame suffix [next_send_seq - ring, next - 1].
  // If the peer missed more than that, the link cannot be healed
  // losslessly; fail the resume so the run aborts instead of silently
  // dropping protocol messages.
  const uint64_t want_from = peer_last_seq + 1;
  if (want_from < c->next_send_seq &&
      (c->sent_ring.empty() || c->sent_ring.front().first > want_from)) {
    return false;
  }
  std::string replay;
  int64_t replayed = 0;
  for (const auto& [seq, bytes] : c->sent_ring) {
    if (seq >= want_from) {
      replay += bytes;
      ++replayed;
    }
  }
  if (!replay.empty() && !WriteAll(fd, replay.data(), replay.size())) {
    return false;
  }
  replayed_frames_.fetch_add(replayed, std::memory_order_relaxed);
  DCV_OBS_COUNT(c_replayed_frames_, replayed);
  bytes_sent_.fetch_add(static_cast<int64_t>(replay.size()),
                        std::memory_order_relaxed);
  if (replayed > 0 && options_.recorder != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kFrameReplay;
    ev.value = replayed;
    ev.ts_us = WallUs();
    options_.recorder->Record(ev);
  }
  {
    std::lock_guard<std::mutex> lock(c->mu);
    if (c->fd >= 0 && c->fd != fd) {
      RetireFd(c->fd);  // Fence the stale incarnation.
    }
    c->fd = fd;
    c->generation = generation;
    c->residual = std::move(residual);
  }
  c->cv.notify_all();
  return true;
}

bool SocketTransport::TryWorkerResume(Connection* c, std::string* residual) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(peer_port_));
  if (::inet_pton(AF_INET, peer_host_.c_str(), &addr.sin_addr) != 1) {
    return false;
  }
  connect_attempts_.fetch_add(1, std::memory_order_relaxed);
  DCV_OBS_COUNT(c_connect_attempts_, 1);
  auto fd = ConnectOnce(addr, options_.connect_timeout_ms);
  if (!fd.ok()) {
    return false;
  }
  SetNoDelay(*fd);
  SetSendTimeout(*fd, options_.io_timeout_ms);
  HelloFrame hello;
  hello.worker = worker_;
  hello.num_workers = num_workers_;
  hello.num_sites = num_sites_;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    hello.generation = c->generation + 1;
  }
  hello.last_seq_received = c->last_seq_received.load(std::memory_order_relaxed);
  hello.t1_us = WallUs();
  std::string out;
  AppendHelloFrame(hello, &out);
  if (!WriteAll(*fd, out.data(), out.size())) {
    ::close(*fd);
    return false;
  }
  FrameReader hs;
  auto ack = ReadFrame(*fd, options_.io_timeout_ms, &hs);
  const int64_t t4 = WallUs();
  if (!ack.ok() || ack->type != FrameType::kHelloAck ||
      ack->hello_ack.ok == 0) {
    ::close(*fd);
    return false;
  }
  if (ack->hello_ack.t2_us != 0) {
    // Refresh the clock-offset estimate on every resume handshake.
    const HelloAckFrame& a = ack->hello_ack;
    clock_offset_us_.store(((a.t2_us - hello.t1_us) + (a.t3_us - t4)) / 2,
                           std::memory_order_relaxed);
  }
  if (!InstallResumedFd(c, *fd, hello.generation,
                        ack->hello_ack.last_seq_received, hs.TakeBuffered())) {
    ::close(*fd);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(c->mu);
    *residual = std::move(c->residual);
    c->residual.clear();
  }
  return true;
}

bool SocketTransport::AwaitResume(size_t index, uint32_t seen_gen,
                                  std::string* residual) {
  Connection& c = *conns_[index];
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.reconnect_window_ms);
  if (role_ == Role::kWorker) {
    // Grace period: on a graceful shutdown the site actors are already
    // holding their kShutdown envelopes, so shutting_down_ flips almost
    // immediately — don't redial a coordinator that is simply done.
    {
      std::unique_lock<std::mutex> lock(c.mu);
      c.cv.wait_for(lock,
                    std::chrono::milliseconds(options_.reconnect_grace_ms),
                    [&] {
                      return shutting_down_.load(std::memory_order_relaxed);
                    });
    }
    int backoff = std::max(1, options_.connect_backoff_ms);
    while (!shutting_down_.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      if (TryWorkerResume(&c, residual)) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
        DCV_OBS_COUNT(c_reconnects_, 1);
        if (options_.recorder != nullptr) {
          obs::TraceEvent ev;
          ev.kind = obs::TraceEventKind::kWorkerReconnect;
          ev.value = worker_;
          ev.ts_us = WallUs();
          options_.recorder->Record(ev);
        }
        return true;
      }
      connect_retries_.fetch_add(1, std::memory_order_relaxed);
      DCV_OBS_COUNT(c_connect_retries_, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, 2000);
    }
    return false;
  }
  // Coordinator role: the acceptor thread installs the resumed fd; park
  // until the generation moves past the incarnation we just lost.
  std::unique_lock<std::mutex> lock(c.mu);
  c.cv.wait_until(lock, deadline, [&] {
    return shutting_down_.load(std::memory_order_relaxed) ||
           c.generation != seen_gen;
  });
  if (shutting_down_.load(std::memory_order_relaxed) ||
      c.generation == seen_gen) {
    return false;
  }
  *residual = std::move(c.residual);
  c.residual.clear();
  return true;
}

void SocketTransport::AcceptorLoop() {
  while (!shutting_down_.load(std::memory_order_relaxed)) {
    pollfd p{listen_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, 100);
    if (rc <= 0) {
      continue;  // Timeout tick (checks shutting_down_) or EINTR.
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    SetNoDelay(fd);
    SetSendTimeout(fd, options_.io_timeout_ms);
    FrameReader hs;
    const int handshake_ms =
        std::min(options_.io_timeout_ms, options_.reconnect_window_ms);
    auto frame = ReadFrame(fd, handshake_ms, &hs);
    const int64_t t2 = WallUs();
    HelloAckFrame ack;
    ack.num_sites = num_sites_;
    ack.num_workers = num_workers_;
    ack.virtual_time = virtual_time_ ? 1 : 0;
    Connection* c = nullptr;
    bool ok = frame.ok() && frame->type == FrameType::kHello;
    if (ok) {
      const HelloFrame& hello = frame->hello;
      ok = hello.num_sites == num_sites_ &&
           hello.num_workers == num_workers_ && hello.worker >= 0 &&
           hello.worker < num_workers_;
      if (ok) {
        c = conns_[static_cast<size_t>(hello.worker)].get();
        std::lock_guard<std::mutex> lock(c->mu);
        // Generation fence: only a strictly newer incarnation may replace
        // the connection; a stale or duplicate dial is rejected.
        ok = hello.generation > c->generation;
        ack.generation = hello.generation;
      }
    }
    if (ok) {
      ack.last_seq_received =
          c->last_seq_received.load(std::memory_order_relaxed);
    }
    ack.ok = ok ? 1 : 0;
    if (frame.ok() && frame->type == FrameType::kHello) {
      ack.t1_us = frame->hello.t1_us;
    }
    ack.t2_us = t2;
    ack.t3_us = WallUs();
    std::string reply;
    AppendHelloAckFrame(ack, &reply);
    if (!WriteAll(fd, reply.data(), reply.size()) || !ok) {
      ::close(fd);
      continue;
    }
    if (!InstallResumedFd(c, fd, frame->hello.generation,
                          frame->hello.last_seq_received,
                          hs.TakeBuffered())) {
      ::close(fd);
      continue;
    }
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    DCV_OBS_COUNT(c_reconnects_, 1);
    if (options_.recorder != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEventKind::kWorkerReconnect;
      ev.value = frame->hello.worker;
      ev.ts_us = WallUs();
      options_.recorder->Record(ev);
    }
  }
}

bool SocketTransport::SendBatch(std::vector<Envelope>* batch) {
  // Route everything before delivering anything, so an unroutable envelope
  // rejects the batch whole.
  for (const Envelope& e : *batch) {
    const bool routable = role_ == Role::kCoordinator
                              ? e.to >= 0 && e.to < num_sites_
                              : e.to == kCoordinatorId;
    if (!routable) {
      batch->clear();
      return false;
    }
  }
  if (role_ != Role::kCoordinator || conns_.size() == 1) {
    // One connection: the batch goes into its send box in one PushAll; the
    // writer drains it into coalesced kEnvelopeBatch frames.
    return batch->empty() || conns_[0]->send_box->PushAll(batch);
  }
  // Coordinator role with several workers: group per worker connection.
  std::vector<std::vector<Envelope>> per_conn(conns_.size());
  for (const Envelope& e : *batch) {
    per_conn[static_cast<size_t>(WorkerOf(e.to))].push_back(e);
  }
  batch->clear();
  for (size_t w = 0; w < per_conn.size(); ++w) {
    if (!per_conn[w].empty() && !conns_[w]->send_box->PushAll(&per_conn[w])) {
      return false;
    }
  }
  return true;
}

size_t SocketTransport::TrySendBatch(const std::vector<Envelope>& batch,
                                     size_t begin, bool* closed) {
  // Prefix semantics (see Transport::TrySendBatch). The send boxes are
  // drained by dedicated writer threads regardless of what the peer is
  // doing, so kFull here only means a transient burst beyond the box
  // capacity — the caller drains its own inbox and retries. kClosed and
  // unroutable envelopes are permanent and flag `*closed`.
  size_t sent = 0;
  while (begin + sent < batch.size()) {
    const Envelope& e = batch[begin + sent];
    Mailbox<Envelope>* box = nullptr;
    if (role_ == Role::kCoordinator) {
      if (e.to < 0 || e.to >= num_sites_) {
        if (closed != nullptr) {
          *closed = true;
        }
        break;
      }
      box = conns_[static_cast<size_t>(WorkerOf(e.to))]->send_box.get();
    } else {
      if (e.to != kCoordinatorId) {
        if (closed != nullptr) {
          *closed = true;
        }
        break;
      }
      box = conns_[0]->send_box.get();
    }
    const MailboxPush push = box->TryPush(e);
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

bool SocketTransport::SendToShard(int shard, const Envelope& e) {
  if (role_ != Role::kCoordinator || shard < 0 ||
      shard >= static_cast<int>(inboxes_.size())) {
    return false;
  }
  // Root-to-shard commands are coordinator-process-local: straight into
  // the shard inbox, no frame, no socket.
  return inboxes_[static_cast<size_t>(shard)]->Push(e);
}

bool SocketTransport::TrySendToShard(int shard, const Envelope& e) {
  if (role_ != Role::kCoordinator || shard < 0 ||
      shard >= static_cast<int>(inboxes_.size())) {
    return false;
  }
  return inboxes_[static_cast<size_t>(shard)]->TryPush(e) == MailboxPush::kOk;
}

size_t SocketTransport::RecvShardAll(int shard, std::vector<Envelope>* out) {
  if (role_ != Role::kCoordinator || shard < 0 ||
      shard >= static_cast<int>(inboxes_.size())) {
    return 0;
  }
  return inboxes_[static_cast<size_t>(shard)]->PopAll(out);
}

bool SocketTransport::RecvWorker(int worker, Envelope* out) {
  return role_ == Role::kWorker && worker == worker_ && inboxes_[0]->Pop(out);
}

size_t SocketTransport::RecvWorkerAll(int worker, std::vector<Envelope>* out) {
  if (role_ != Role::kWorker || worker != worker_) {
    return 0;
  }
  return inboxes_[0]->PopAll(out);
}

size_t SocketTransport::TryRecvWorkerAll(int worker,
                                         std::vector<Envelope>* out) {
  if (role_ != Role::kWorker || worker != worker_) {
    return 0;
  }
  return inboxes_[0]->TryPopAll(out);
}

Status SocketTransport::UpdateLayout(const ShardLayout& next) {
  if (role_ != Role::kCoordinator) {
    return FailedPreconditionError(
        "layout updates originate at the coordinator");
  }
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
  LayoutFrame lf;
  lf.version = next.version;
  lf.num_sites = next.num_sites;
  lf.num_shards = next.num_shards;
  lf.starts.resize(static_cast<size_t>(next.num_shards) + 1);
  for (int s = 0; s < next.num_shards; ++s) {
    lf.starts[static_cast<size_t>(s)] = next.ShardStart(s);
  }
  lf.starts[static_cast<size_t>(next.num_shards)] = next.num_sites;
  std::string bytes;
  AppendLayoutFrame(lf, &bytes);
  for (auto& c : conns_) {
    std::lock_guard<std::mutex> wl(c->write_mu);
    if (c->fd < 0 || !WriteAll(c->fd, bytes.data(), bytes.size())) {
      return InternalError("layout push failed on a worker connection");
    }
  }
  // The fence: routing switches only after every worker acked, so no party
  // still routes by the old layout once this returns.
  std::unique_lock<std::mutex> lock(layout_mu_);
  bool acked = layout_cv_.wait_for(
      lock, std::chrono::milliseconds(options_.io_timeout_ms), [&] {
        if (shutting_down_.load(std::memory_order_relaxed)) {
          return true;
        }
        for (uint32_t v : layout_acked_) {
          if (v < next.version) {
            return false;
          }
        }
        return true;
      });
  if (!acked || shutting_down_.load(std::memory_order_relaxed)) {
    return ResourceExhaustedError(
        "timed out waiting for layout acks from workers");
  }
  layouts_.push_back(std::make_unique<ShardLayout>(next));
  layout_ptr_.store(layouts_.back().get(), std::memory_order_release);
  return OkStatus();
}

Status SocketTransport::InjectPeerFailure(int worker) {
  if (role_ != Role::kCoordinator) {
    return FailedPreconditionError("failure injection needs the coordinator");
  }
  if (worker < 0 || worker >= num_workers_) {
    return InvalidArgumentError("worker index out of range");
  }
  Connection& c = *conns_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(c.mu);
  if (c.fd >= 0) {
    // Hard sever both directions: the worker sees end-of-stream, our own
    // reader/writer see failures — exactly the observable footprint of a
    // crashed peer or a cut link.
    ::shutdown(c.fd, SHUT_RDWR);
  }
  return OkStatus();
}

Status SocketTransport::SendTelemetry(const TelemetryFrame& t) {
  if (role_ != Role::kWorker) {
    return FailedPreconditionError("telemetry flows worker -> coordinator");
  }
  std::string bytes;
  DCV_RETURN_IF_ERROR(AppendTelemetryFrame(t, &bytes));
  // Telemetry bypasses the envelope queue and replay ring (the same
  // direct-write path UpdateLayout uses): frames are unsequenced cumulative
  // snapshots, so a resume never needs to replay them and dedup can never
  // double-count them.
  Connection& c = *conns_[0];
  std::lock_guard<std::mutex> wl(c.write_mu);
  if (c.fd < 0 || !WriteAll(c.fd, bytes.data(), bytes.size())) {
    return InternalError("telemetry push failed (connection down)");
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(static_cast<int64_t>(bytes.size()),
                        std::memory_order_relaxed);
  DCV_OBS_COUNT(c_frames_tx_, 1);
  DCV_OBS_COUNT(c_bytes_tx_, static_cast<int64_t>(bytes.size()));
  return OkStatus();
}

std::vector<TelemetryFrame> SocketTransport::TakeWorkerTelemetry() {
  std::vector<TelemetryFrame> out;
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  for (size_t w = 0; w < worker_telemetry_.size(); ++w) {
    if (worker_telemetry_valid_[w] != 0) {
      out.push_back(std::move(worker_telemetry_[w]));
      worker_telemetry_[w] = TelemetryFrame{};
      worker_telemetry_valid_[w] = 0;
    }
  }
  return out;
}

bool SocketTransport::WaitForFinalTelemetry(int timeout_ms) {
  if (role_ != Role::kCoordinator) {
    return false;
  }
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  return telemetry_cv_.wait_for(
      lock, std::chrono::milliseconds(std::max(0, timeout_ms)), [&] {
        if (shutting_down_.load(std::memory_order_relaxed)) {
          return true;
        }
        for (uint8_t f : worker_telemetry_final_) {
          if (f == 0) {
            return false;
          }
        }
        return true;
      });
}

void SocketTransport::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shutdown_done_) {
    return;
  }
  shutdown_done_ = true;
  shutting_down_.store(true, std::memory_order_relaxed);
  // Wake anything parked waiting for a resume; no resume is coming.
  for (auto& c : conns_) {
    c->cv.notify_all();
  }
  layout_cv_.notify_all();
  telemetry_cv_.notify_all();
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  // Phase 1: flush. Closing a mailbox still lets Pop drain it, so the
  // writers push every queued frame (including a final kShutdown
  // broadcast) before half-closing their sockets.
  for (auto& c : conns_) {
    if (c->send_box != nullptr) {
      c->send_box->Close();
    }
  }
  for (auto& c : conns_) {
    if (c->writer.joinable()) {
      c->writer.join();
    }
  }
  // Phase 2: stop receiving. Shut the sockets to wake blocked readers and
  // close the inbox so blocked receivers drain out.
  for (auto& c : conns_) {
    if (c->fd >= 0) {
      ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  CloseInboxes();
  for (auto& c : conns_) {
    if (c->reader.joinable()) {
      c->reader.join();
    }
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> retired_lock(retired_mu_);
    for (int fd : retired_fds_) {
      ::close(fd);
    }
    retired_fds_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

SocketStats SocketTransport::stats() const {
  SocketStats s;
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.envelopes_sent = envelopes_sent_.load(std::memory_order_relaxed);
  s.envelopes_received = envelopes_received_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.connect_attempts = connect_attempts_.load(std::memory_order_relaxed);
  s.connect_retries = connect_retries_.load(std::memory_order_relaxed);
  s.accept_timeouts = accept_timeouts_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.truncated_frames = truncated_frames_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.replayed_frames = replayed_frames_.load(std::memory_order_relaxed);
  s.duplicate_frames = duplicate_frames_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dcv
