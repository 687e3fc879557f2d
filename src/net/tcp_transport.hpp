// Per-node TCP endpoint implementing the Transport interface: the monitor
// and NOC daemons each own one, configured with a listen address (NOC) or
// outbound peers (monitors dial the NOC).
//
// Robustness is built in rather than bolted on:
//   * outbound connects retry with exponential backoff + jitter;
//   * a send onto a dead outbound connection reconnects and resends once;
//   * a send towards a not-yet-(re)connected inbound peer waits for the
//     peer's handshake up to the I/O timeout before failing;
//   * reads reassemble partial frames (FrameDecoder) and tolerate EOF;
//   * stop() (also run by the destructor) closes everything and joins the
//     I/O thread, so daemons shut down gracefully on SIGTERM.
//
// All reads and accepts run on ONE event-loop thread multiplexed by a
// Poller (epoll on Linux, poll elsewhere), so an endpoint holds hundreds of
// connections without hundreds of threads, and dispatch work per wake-up is
// O(ready), not O(connections). Inbound handshakes are asynchronous state
// machines with a deadline, so a slow dialer never blocks the accept path.
// Writes stay on the calling thread under a per-connection write mutex.
//
// Wire accounting matches SimNetwork byte-for-byte: NetworkStats counts
// serialized Message payloads only; framing overhead, hellos, and advance
// frames appear in the spca.net.frame_* / control metrics instead.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace spca {

/// Endpoint configuration.
struct TcpTransportConfig {
  /// This endpoint's node id (kNocId for the NOC daemon).
  NodeId node_id = kNocId;
  /// Listen address; empty host disables the listener (monitor side).
  std::string listen_host;
  std::uint16_t listen_port = 0;
  /// Outbound peers to dial at start() (monitor side: the NOC).
  struct Peer {
    NodeId id = kNocId;
    std::string host;
    std::uint16_t port = 0;
  };
  std::vector<Peer> peers;
  /// Connect retry/backoff policy for outbound peers.
  RetryPolicy retry;
  /// Read/write timeout of established connections.
  std::chrono::milliseconds io_timeout{15000};
  /// Readiness backend of the event loop (kAuto = epoll where available).
  PollerBackend poller = PollerBackend::kAuto;
};

/// A transport-level control frame received from a peer.
struct ControlFrame {
  NodeId from = 0;
  FrameType type = FrameType::kHello;
  std::vector<std::byte> payload;
};

/// The socket transport endpoint.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportConfig config);
  ~TcpTransport() override;

  /// Binds the listener (if configured) and dials every outbound peer,
  /// retrying with backoff. Must be called once before any send/drain.
  void start();

  /// Closes all connections and joins the I/O threads; idempotent.
  void stop();

  /// Closes the listener, so dials to this endpoint are refused, while the
  /// established connections stay up; idempotent. Returns once the event
  /// loop has let go of the listening socket.
  void stop_accepting() noexcept;

  /// The bound listen port (after start(); resolves an ephemeral port 0).
  [[nodiscard]] std::uint16_t listen_port() const noexcept;

  // Transport interface.
  void send(const Message& msg) override;
  [[nodiscard]] std::vector<Message> drain(NodeId node) override;
  [[nodiscard]] std::vector<Message> take(NodeId node,
                                          MessageType type) override;
  [[nodiscard]] bool has_mail(NodeId node) const override;
  bool wait_for_mail(NodeId node, std::chrono::milliseconds timeout) override;
  [[nodiscard]] const NetworkStats& stats() const noexcept override {
    return stats_;
  }
  void reset_stats() noexcept override { stats_ = NetworkStats{}; }

  /// Sends a control frame (kAdvance) to `to`; same delivery guarantees as
  /// send() but never enters NetworkStats.
  void send_control(NodeId to, FrameType type,
                    const std::vector<std::byte>& payload);

  /// Pops the oldest queued control frame, if any.
  [[nodiscard]] std::optional<ControlFrame> poll_control();

  /// Blocks until a message or control frame is queued or `timeout`
  /// elapses; true if anything is available.
  bool wait_for_activity(std::chrono::milliseconds timeout);

  /// True while a live connection to `peer` exists.
  [[nodiscard]] bool connected(NodeId peer) const;

  /// Successful re-establishments of previously live connections.
  [[nodiscard]] std::uint64_t reconnects() const noexcept;

  /// Node ids with a currently live connection (for tests/introspection).
  [[nodiscard]] std::vector<NodeId> connected_peers() const;

  /// Forcibly severs the live connection to `peer` (if any), as if the link
  /// flapped: the socket is shut down and the reader drops it. Fault
  /// injection calls this at protocol-quiet points; the next send (or an
  /// ensure_connected) redials outbound peers transparently.
  void reset_connection(NodeId peer);

  /// Redials `peer` now if it is an outbound peer with no live connection.
  /// Lets a daemon that just reset its own link re-establish it proactively
  /// instead of deadlocking until the next send's I/O timeout.
  void ensure_connected(NodeId peer);

  /// Connections currently multiplexed by the event loop (established plus
  /// mid-handshake); for tests and capacity introspection.
  [[nodiscard]] std::size_t watched_connections() const;

  /// The readiness backend the event loop runs on ("epoll" or "poll").
  [[nodiscard]] const char* poller_backend() const;

 private:
  struct Conn;
  /// An accepted connection whose hello frame has not arrived yet.
  struct PendingHello;

  void io_loop();
  void adopt_pending_conns(Poller& poller,
                           std::map<int, std::shared_ptr<Conn>>& by_fd);
  void accept_ready(Poller& poller, std::map<int, PendingHello>& pending);
  /// Returns false when the handshake connection should be dropped.
  [[nodiscard]] bool progress_handshake(
      Poller& poller, std::map<int, std::shared_ptr<Conn>>& by_fd,
      PendingHello& pending);
  /// Returns false when the established connection died (EOF or error).
  [[nodiscard]] bool read_ready(const std::shared_ptr<Conn>& conn);
  std::shared_ptr<Conn> connect_peer(const TcpTransportConfig::Peer& peer,
                                     bool is_reconnect);
  std::shared_ptr<Conn> conn_for(NodeId to);
  void register_conn(const std::shared_ptr<Conn>& conn);
  void drop_conn(const std::shared_ptr<Conn>& conn);
  void deliver_local(Message msg);
  void write_frame(NodeId to, const std::vector<std::byte>& frame);
  void wake_io_thread();

  TcpTransportConfig config_;
  NetworkStats stats_;

  // Guards conns_, inbox_, control_, stopping_, close_listener_ and the
  // listener's descriptor.
  mutable std::mutex mutex_;
  std::condition_variable inbox_cv_;
  std::condition_variable conn_cv_;
  std::map<NodeId, std::shared_ptr<Conn>> conns_;
  /// Lifetime registrations per peer (reconnect detection across EOF drops).
  std::map<NodeId, std::uint64_t> registrations_;
  /// Outbound connections awaiting adoption by the event loop.
  std::vector<std::shared_ptr<Conn>> pending_add_;
  std::deque<Message> inbox_;
  std::deque<ControlFrame> control_;
  bool stopping_ = false;
  bool close_listener_ = false;
  bool started_ = false;
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::size_t> watched_{0};

  std::optional<TcpListener> listener_;
  /// Self-pipe that wakes the event loop for stop() and adoptions.
  int wake_rx_ = -1;
  int wake_tx_ = -1;
  std::thread io_thread_;
};

}  // namespace spca
