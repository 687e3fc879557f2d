#include "net/tcp_transport.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/scoped_timer.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace spca {

namespace {

/// Upper bound of one event-loop sweep; also the cadence of the pending
/// handshake deadline checks.
constexpr std::chrono::milliseconds kPollSlice{200};
/// Read rounds per ready connection per sweep: bounds how long one firehose
/// peer can monopolize the loop — the poller is level-triggered, so leftover
/// bytes re-report the descriptor on the next sweep.
constexpr int kMaxReadsPerWake = 8;

std::vector<std::byte> encode_node_id(NodeId id) {
  std::vector<std::byte> payload(sizeof(NodeId));
  std::memcpy(payload.data(), &id, sizeof(NodeId));
  return payload;
}

NodeId decode_node_id(const std::vector<std::byte>& payload) {
  if (payload.size() != sizeof(NodeId)) {
    throw ProtocolError("hello frame: bad payload size");
  }
  NodeId id;
  std::memcpy(&id, payload.data(), sizeof(NodeId));
  return id;
}

void set_nonblocking_fd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One live connection. `alive` flips to false exactly once (under the
/// transport mutex) when either side dies; the stream is then shut down but
/// not closed, so the event loop still polling it wakes with EOF safely.
struct TcpTransport::Conn {
  NodeId peer = 0;
  TcpStream stream;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  bool outbound = false;
  /// Reassembly state. Bytes that arrive glued to the hello frame (the
  /// peer's first messages usually do) carry over from the handshake.
  FrameDecoder decoder;
};

/// An accepted connection whose introductory hello frame is still in
/// flight; dropped if the hello misses its deadline.
struct TcpTransport::PendingHello {
  TcpStream stream;
  FrameDecoder decoder;
  std::chrono::steady_clock::time_point deadline;
};

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)) {}

TcpTransport::~TcpTransport() {
  stop();
  // The wake pipe outlives stop(): a racing send() may still prod it after
  // shutdown, and writing into a recycled descriptor would be far worse
  // than keeping two fds until destruction.
  if (wake_rx_ >= 0) ::close(wake_rx_);
  if (wake_tx_ >= 0) ::close(wake_tx_);
  wake_rx_ = wake_tx_ = -1;
}

std::uint16_t TcpTransport::listen_port() const noexcept {
  return listener_ ? listener_->port() : 0;
}

void TcpTransport::start() {
  SPCA_EXPECTS(!started_);
  started_ = true;
  // Advertise which readiness backend the io loop runs on (1 = epoll,
  // 0 = poll); the gauge surfaces it in /metrics.json and the Prometheus
  // exposition so fleet dashboards can spot a fallback to poll.
  MetricsRegistry::global()
      .gauge("spca.net.poller_backend")
      .set(std::string_view(poller_backend()) == "epoll" ? 1.0 : 0.0);
  if (!config_.listen_host.empty()) {
    listener_.emplace(config_.listen_host, config_.listen_port);
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    throw TransportError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_rx_ = pipe_fds[0];
  wake_tx_ = pipe_fds[1];
  set_nonblocking_fd(wake_rx_);
  set_nonblocking_fd(wake_tx_);
  io_thread_ = std::thread([this] { io_loop(); });
  for (const auto& peer : config_.peers) {
    register_conn(connect_peer(peer, /*is_reconnect=*/false));
  }
}

void TcpTransport::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& [id, conn] : conns_) {
      conn->alive.store(false, std::memory_order_relaxed);
      conn->stream.shutdown_both();
    }
  }
  inbox_cv_.notify_all();
  conn_cv_.notify_all();
  wake_io_thread();
  if (io_thread_.joinable()) io_thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  conns_.clear();
  pending_add_.clear();
  listener_.reset();
}

void TcpTransport::stop_accepting() noexcept {
  std::unique_lock<std::mutex> lock(mutex_);
  // Never listened, or stop() is closing everything anyway.
  if (!listener_ || stopping_) return;
  close_listener_ = true;
  lock.unlock();
  wake_io_thread();
  lock.lock();
  conn_cv_.wait(lock, [this] {
    return stopping_ || listener_->native_handle() < 0;
  });
}

void TcpTransport::wake_io_thread() {
  if (wake_tx_ < 0) return;
  const std::byte one{1};
  // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
  (void)::write(wake_tx_, &one, 1);
}

void TcpTransport::adopt_pending_conns(
    Poller& poller, std::map<int, std::shared_ptr<Conn>>& by_fd) {
  std::vector<std::shared_ptr<Conn>> adopted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    adopted.swap(pending_add_);
  }
  for (auto& conn : adopted) {
    // A connection superseded or dropped before adoption is simply released
    // here (closing its descriptor); it never enters the poll set.
    if (!conn->alive.load(std::memory_order_relaxed)) continue;
    const int fd = conn->stream.native_handle();
    if (fd < 0) continue;
    poller.add(fd);
    by_fd[fd] = std::move(conn);
  }
}

void TcpTransport::accept_ready(Poller& poller,
                                std::map<int, PendingHello>& pending) {
  for (;;) {
    TcpStream stream;
    try {
      stream = listener_->accept(std::chrono::milliseconds(0));
    } catch (const TransportError& e) {
      log_warn("tcp: accept failed: ", e.what());
      return;
    }
    if (!stream.valid()) return;
    const int fd = stream.native_handle();
    PendingHello hello;
    hello.stream = std::move(stream);
    hello.deadline = std::chrono::steady_clock::now() + config_.io_timeout;
    poller.add(fd);
    pending.emplace(fd, std::move(hello));
  }
}

bool TcpTransport::progress_handshake(
    Poller& poller, std::map<int, std::shared_ptr<Conn>>& by_fd,
    PendingHello& pending) {
  std::byte buf[4096];
  try {
    for (int round = 0; round < kMaxReadsPerWake; ++round) {
      if (pending.decoder.has_frame()) break;
      const std::ptrdiff_t n = pending.stream.recv_some(
          buf, sizeof(buf), std::chrono::milliseconds(0));
      if (n < 0) return true;  // nothing more now; hello still pending
      if (n == 0) throw ProtocolError("hello frame: peer closed early");
      pending.decoder.feed(buf, static_cast<std::size_t>(n));
    }
    if (!pending.decoder.has_frame()) return true;
    const Frame hello = pending.decoder.pop();
    if (hello.type != FrameType::kHello) {
      throw ProtocolError("expected hello as the first frame");
    }
    auto conn = std::make_shared<Conn>();
    conn->peer = decode_node_id(hello.payload);
    conn->stream = std::move(pending.stream);
    conn->decoder = std::move(pending.decoder);
    register_conn(conn);
    if (!conn->alive.load(std::memory_order_relaxed)) return false;
    // The descriptor is already in the poll set; promote it in place (the
    // stream moved, so the fd key is unchanged).
    by_fd[conn->stream.native_handle()] = conn;
    // Frames glued to the hello are already decoded; dispatch them now.
    if (!read_ready(by_fd.at(conn->stream.native_handle()))) {
      const int fd = conn->stream.native_handle();
      poller.remove(fd);
      by_fd.erase(fd);
    }
    return false;  // no longer pending either way
  } catch (const std::exception& e) {
    static Counter& errors =
        MetricsRegistry::global().counter("spca.net.frame_errors");
    errors.inc();
    log_warn("tcp: rejected inbound connection: ", e.what());
    FlightRecorder::global().note("protocol_error", -1, e.what());
    (void)FlightRecorder::global().dump("protocol_error");
    return false;
  }
}

bool TcpTransport::read_ready(const std::shared_ptr<Conn>& conn) {
  static Counter& bytes_rx =
      MetricsRegistry::global().counter("spca.net.bytes_rx");
  static Counter& control_rx =
      MetricsRegistry::global().counter("spca.net.control_rx");
  static Counter& frame_errors =
      MetricsRegistry::global().counter("spca.net.frame_errors");

  FrameDecoder& decoder = conn->decoder;
  std::byte buf[64 * 1024];
  bool dead = false;
  try {
    for (int round = 0; round < kMaxReadsPerWake; ++round) {
      if (!conn->alive.load(std::memory_order_relaxed)) {
        dead = true;
        break;
      }
      if (round > 0 || !decoder.has_frame()) {
        const std::ptrdiff_t n = conn->stream.recv_some(
            buf, sizeof(buf), std::chrono::milliseconds(0));
        if (n < 0) break;  // drained for now
        if (n == 0) {      // EOF: peer shut down
          dead = true;
          break;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
      }
      while (decoder.has_frame()) {
        Frame frame = decoder.pop();
        switch (frame.type) {
          case FrameType::kMessage: {
            Message msg = deserialize(frame.payload);
            bytes_rx.inc(frame.payload.size());
            deliver_local(std::move(msg));
            break;
          }
          case FrameType::kAdvance: {
            control_rx.inc();
            std::lock_guard<std::mutex> lock(mutex_);
            control_.push_back(ControlFrame{conn->peer, frame.type,
                                            std::move(frame.payload)});
            inbox_cv_.notify_all();
            break;
          }
          case FrameType::kHello:
            throw ProtocolError("unexpected hello on established connection");
        }
      }
    }
  } catch (const ProtocolError& e) {
    frame_errors.inc();
    log_warn("tcp: dropping connection to node ", conn->peer, ": ", e.what());
    FlightRecorder::global().note(
        "protocol_error", -1,
        "node " + std::to_string(conn->peer) + ": " + e.what());
    (void)FlightRecorder::global().dump("protocol_error");
    dead = true;
  } catch (const TransportError& e) {
    log_warn("tcp: read error from node ", conn->peer, ": ", e.what());
    dead = true;
  }
  if (!dead) return true;
  drop_conn(conn);
  inbox_cv_.notify_all();
  conn_cv_.notify_all();
  return false;
}

void TcpTransport::io_loop() {
  Poller poller(config_.poller);
  std::map<int, std::shared_ptr<Conn>> by_fd;
  std::map<int, PendingHello> pending;
  std::vector<PollerEvent> events;
  int listen_fd = listener_ ? listener_->native_handle() : -1;
  if (listen_fd >= 0) poller.add(listen_fd);
  poller.add(wake_rx_);

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) break;
      if (close_listener_ && listen_fd >= 0) {
        poller.remove(listen_fd);
        listener_->close();
        listen_fd = -1;
        conn_cv_.notify_all();
      }
    }
    adopt_pending_conns(poller, by_fd);
    watched_.store(by_fd.size() + pending.size(), std::memory_order_relaxed);
    (void)poller.wait(events, kPollSlice);
    for (const PollerEvent& event : events) {
      if (event.fd == wake_rx_) {
        std::byte sink[64];
        while (::read(wake_rx_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (event.fd == listen_fd) {
        accept_ready(poller, pending);
        continue;
      }
      const auto pending_it = pending.find(event.fd);
      if (pending_it != pending.end()) {
        if (!progress_handshake(poller, by_fd, pending_it->second)) {
          // Promoted or rejected; if the fd is not established now, it is
          // gone — stop polling it. (A promoted fd stays in the set.)
          if (by_fd.find(event.fd) == by_fd.end()) poller.remove(event.fd);
          pending.erase(pending_it);
        }
        continue;
      }
      const auto conn_it = by_fd.find(event.fd);
      if (conn_it == by_fd.end()) continue;  // already dropped this sweep
      if (!read_ready(conn_it->second)) {
        poller.remove(event.fd);
        by_fd.erase(conn_it);
      }
    }
    // Expire handshakes that never said hello; sweep dead connections whose
    // descriptors were shut down by another thread (drop/reset/supersede) —
    // their EOF arrives via the poller, but a shutdown pipe-closed race must
    // not leak entries.
    if (!pending.empty()) {
      const auto now = std::chrono::steady_clock::now();
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->second.deadline <= now) {
          log_warn("tcp: dropping inbound connection (hello timeout)");
          poller.remove(it->first);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // Shutdown: unregister everything; streams close when the maps release
  // their last references (conns_ is cleared by stop() after the join).
  for (auto& [fd, conn] : by_fd) poller.remove(fd);
  for (auto& [fd, hello] : pending) poller.remove(fd);
  by_fd.clear();
  pending.clear();
}

void TcpTransport::register_conn(const std::shared_ptr<Conn>& conn) {
  bool seen_before = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      conn->alive.store(false, std::memory_order_relaxed);
      conn->stream.shutdown_both();
      return;
    }
    auto it = conns_.find(conn->peer);
    if (it != conns_.end()) {
      it->second->alive.store(false, std::memory_order_relaxed);
      it->second->stream.shutdown_both();
    }
    // Count registrations per peer so a re-register is recognized even when
    // the previous connection already died of EOF and was dropped.
    seen_before = registrations_[conn->peer]++ > 0;
    conns_[conn->peer] = conn;
    if (conn->outbound) {
      // Outbound sockets are created on caller threads; hand them to the
      // event loop for read multiplexing. Inbound sockets are already in
      // the poll set (the handshake ran there).
      pending_add_.push_back(conn);
    }
  }
  if (conn->outbound) wake_io_thread();
  if (seen_before && !conn->outbound) {
    // An inbound peer came back on a fresh socket (its previous connection
    // is superseded); outbound reconnects are counted at connect time.
    static Counter& reconnects =
        MetricsRegistry::global().counter("spca.net.reconnects");
    reconnects.inc();
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  conn_cv_.notify_all();
}

void TcpTransport::drop_conn(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(mutex_);
  conn->alive.store(false, std::memory_order_relaxed);
  conn->stream.shutdown_both();
  auto it = conns_.find(conn->peer);
  if (it != conns_.end() && it->second == conn) conns_.erase(it);
}

std::shared_ptr<TcpTransport::Conn> TcpTransport::connect_peer(
    const TcpTransportConfig::Peer& peer, bool is_reconnect) {
  static Counter& retries =
      MetricsRegistry::global().counter("spca.net.connect_retries");
  RetryPolicy policy = config_.retry;
  // Distinct deterministic jitter sequences per (endpoint, peer) pair.
  policy.seed ^= (static_cast<std::uint64_t>(config_.node_id) << 32) ^ peer.id;
  auto conn = std::make_shared<Conn>();
  conn->peer = peer.id;
  conn->outbound = true;
  conn->stream = connect_with_retry(
      peer.host, peer.port, policy,
      [](std::size_t, std::chrono::milliseconds) { retries.inc(); });
  const std::vector<std::byte> hello =
      encode_frame(FrameType::kHello, encode_node_id(config_.node_id));
  conn->stream.send_all(hello.data(), hello.size(), config_.io_timeout);
  if (is_reconnect) {
    static Counter& reconnects =
        MetricsRegistry::global().counter("spca.net.reconnects");
    reconnects.inc();
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  return conn;
}

std::shared_ptr<TcpTransport::Conn> TcpTransport::conn_for(NodeId to) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = conns_.find(to);
    if (it != conns_.end() &&
        it->second->alive.load(std::memory_order_relaxed)) {
      return it->second;
    }
  }
  // No live connection. Outbound peers are redialed (with backoff); for
  // inbound peers the only cure is the peer reconnecting to us, so wait for
  // its handshake up to the I/O timeout.
  for (const auto& peer : config_.peers) {
    if (peer.id == to) {
      auto conn = connect_peer(peer, /*is_reconnect=*/true);
      register_conn(conn);
      return conn;
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  const bool ok = conn_cv_.wait_for(lock, config_.io_timeout, [&] {
    if (stopping_) return true;
    auto it = conns_.find(to);
    return it != conns_.end() &&
           it->second->alive.load(std::memory_order_relaxed);
  });
  if (stopping_ || !ok) {
    throw TransportError("no connection to node " + std::to_string(to));
  }
  return conns_.at(to);
}

void TcpTransport::write_frame(NodeId to, const std::vector<std::byte>& frame) {
  for (int attempt = 0;; ++attempt) {
    std::shared_ptr<Conn> conn = conn_for(to);
    try {
      std::lock_guard<std::mutex> write_lock(conn->write_mutex);
      conn->stream.send_all(frame.data(), frame.size(), config_.io_timeout);
      return;
    } catch (const TransportError& e) {
      drop_conn(conn);
      if (attempt >= 1) throw;
      log_warn("tcp: send to node ", to, " failed (", e.what(),
               "), reconnecting once");
    }
  }
}

void TcpTransport::deliver_local(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inbox_.push_back(std::move(msg));
  }
  inbox_cv_.notify_all();
}

void TcpTransport::send(const Message& msg) {
  static Histogram& send_seconds =
      MetricsRegistry::global().histogram("spca.net.send_seconds");
  std::vector<std::byte> wire = serialize(msg);
  account_send(stats_, msg, wire.size());
  const ScopedTimer timer(send_seconds);
  if (msg.to == config_.node_id) {
    // Self-delivery (the NOC's operator alarm): honest bytes, no socket.
    deliver_local(deserialize(wire));
    return;
  }
  write_frame(msg.to, encode_frame(FrameType::kMessage, wire));
}

void TcpTransport::send_control(NodeId to, FrameType type,
                                const std::vector<std::byte>& payload) {
  static Counter& control_tx =
      MetricsRegistry::global().counter("spca.net.control_tx");
  control_tx.inc();
  write_frame(to, encode_frame(type, payload));
}

std::vector<Message> TcpTransport::drain(NodeId node) {
  SPCA_EXPECTS(node == config_.node_id);
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out(std::make_move_iterator(inbox_.begin()),
                           std::make_move_iterator(inbox_.end()));
  inbox_.clear();
  return out;
}

std::vector<Message> TcpTransport::take(NodeId node, MessageType type) {
  SPCA_EXPECTS(node == config_.node_id);
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Message> out;
  std::deque<Message> rest;
  for (Message& msg : inbox_) {
    if (msg.type == type) {
      out.push_back(std::move(msg));
    } else {
      rest.push_back(std::move(msg));
    }
  }
  inbox_.swap(rest);
  return out;
}

bool TcpTransport::has_mail(NodeId node) const {
  SPCA_EXPECTS(node == config_.node_id);
  std::lock_guard<std::mutex> lock(mutex_);
  return !inbox_.empty();
}

bool TcpTransport::wait_for_mail(NodeId node,
                                 std::chrono::milliseconds timeout) {
  SPCA_EXPECTS(node == config_.node_id);
  std::unique_lock<std::mutex> lock(mutex_);
  inbox_cv_.wait_for(lock, timeout,
                     [&] { return stopping_ || !inbox_.empty(); });
  return !inbox_.empty();
}

std::optional<ControlFrame> TcpTransport::poll_control() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (control_.empty()) return std::nullopt;
  ControlFrame frame = std::move(control_.front());
  control_.pop_front();
  return frame;
}

bool TcpTransport::wait_for_activity(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  inbox_cv_.wait_for(lock, timeout, [&] {
    return stopping_ || !inbox_.empty() || !control_.empty();
  });
  return !inbox_.empty() || !control_.empty();
}

bool TcpTransport::connected(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = conns_.find(peer);
  return it != conns_.end() &&
         it->second->alive.load(std::memory_order_relaxed);
}

std::uint64_t TcpTransport::reconnects() const noexcept {
  return reconnects_.load(std::memory_order_relaxed);
}

void TcpTransport::reset_connection(NodeId peer) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = conns_.find(peer);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  drop_conn(conn);
  conn_cv_.notify_all();
}

void TcpTransport::ensure_connected(NodeId peer) {
  if (connected(peer)) return;
  for (const auto& p : config_.peers) {
    if (p.id == peer) {
      register_conn(connect_peer(p, /*is_reconnect=*/true));
      return;
    }
  }
}

std::vector<NodeId> TcpTransport::connected_peers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<NodeId> peers;
  for (const auto& [id, conn] : conns_) {
    if (conn->alive.load(std::memory_order_relaxed)) peers.push_back(id);
  }
  return peers;
}

std::size_t TcpTransport::watched_connections() const {
  return watched_.load(std::memory_order_relaxed);
}

const char* TcpTransport::poller_backend() const {
  Poller probe(config_.poller);
  return probe.backend_name();
}

}  // namespace spca
