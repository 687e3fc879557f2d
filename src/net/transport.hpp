// Transport abstraction of the monitor/NOC protocol: anything that can
// carry serialized `Message`s between nodes and account for the bytes.
//
// Two implementations exist: the in-process `SimNetwork` (dist/) used by the
// simulation benches, and the POSIX-socket `TcpTransport` (net/) through
// which the daemons push the same bytes over real TCP connections. The
// protocol actors (LocalMonitor, Noc, DistributedDetector) only ever see
// this interface, so the detection trajectories are transport-independent
// by construction — an invariant the parity tests assert bit-for-bit.
//
// This header is deliberately header-only: dist/ implements the interface
// and net/ links against dist/ for the message codec, so any out-of-line
// definition here would create a link cycle between the two modules.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "dist/message.hpp"
#include "obs/metrics.hpp"

namespace spca {

/// Cumulative send-side traffic statistics of a transport. Only serialized
/// `Message` payload bytes are counted — TCP framing overhead is tracked
/// separately in the `spca.net.frame_*` metrics — so the numbers are
/// directly comparable between SimNetwork and the socket transports.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Per message type (indexed by MessageType value 1..6).
  std::array<std::uint64_t, 7> messages_by_type{};
  std::array<std::uint64_t, 7> bytes_by_type{};
};

/// Aggregates per-process stats (the multi-process deployment's total is
/// the sum over the NOC and every monitor, comparable to a single
/// SimNetwork's stats).
inline NetworkStats& operator+=(NetworkStats& a, const NetworkStats& b) {
  a.messages += b.messages;
  a.bytes += b.bytes;
  for (std::size_t i = 0; i < a.messages_by_type.size(); ++i) {
    a.messages_by_type[i] += b.messages_by_type[i];
    a.bytes_by_type[i] += b.bytes_by_type[i];
  }
  return a;
}

inline bool operator==(const NetworkStats& a, const NetworkStats& b) {
  return a.messages == b.messages && a.bytes == b.bytes &&
         a.messages_by_type == b.messages_by_type &&
         a.bytes_by_type == b.bytes_by_type;
}

/// Accounts one sent message in `stats` and mirrors it into the global
/// `spca.net.*` metrics. Every Transport implementation calls this exactly
/// once per send, with `wire_size = serialize(msg).size()`, which keeps the
/// double-entry between NetworkStats and the metrics registry intact.
inline void account_send(NetworkStats& stats, const Message& msg,
                         std::size_t wire_size) {
  static Counter& messages =
      MetricsRegistry::global().counter("spca.net.messages");
  static Counter& bytes_tx =
      MetricsRegistry::global().counter("spca.net.bytes_tx");
  // Indexed by MessageType value; slot 0 is unused.
  static Counter* const bytes_by_type[7] = {
      nullptr,
      &MetricsRegistry::global().counter("spca.net.volume_report_bytes"),
      &MetricsRegistry::global().counter("spca.net.sketch_request_bytes"),
      &MetricsRegistry::global().counter("spca.net.sketch_response_bytes"),
      &MetricsRegistry::global().counter("spca.net.alarm_bytes"),
      &MetricsRegistry::global().counter("spca.net.aggregate_bytes"),
      &MetricsRegistry::global().counter("spca.net.score_report_bytes"),
  };
  ++stats.messages;
  stats.bytes += wire_size;
  const auto type_index = static_cast<std::size_t>(msg.type);
  messages.inc();
  bytes_tx.inc(wire_size);
  if (type_index >= 1 && type_index <= 6) {
    ++stats.messages_by_type[type_index];
    stats.bytes_by_type[type_index] += wire_size;
    bytes_by_type[type_index]->inc(wire_size);
  }
}

/// Carries protocol messages between nodes.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Serializes and dispatches `msg` towards `msg.to`.
  virtual void send(const Message& msg) = 0;

  /// Delivers (parses and removes) every message currently queued for
  /// `node`, in arrival order. Non-blocking: returns what has arrived.
  [[nodiscard]] virtual std::vector<Message> drain(NodeId node) = 0;

  /// Removes and returns only the queued messages of `type` for `node`,
  /// leaving others queued (used to consume the NOC's operator alarms
  /// without swallowing concurrently arriving protocol traffic).
  [[nodiscard]] virtual std::vector<Message> take(NodeId node,
                                                  MessageType type) = 0;

  /// True if `node` has queued messages.
  [[nodiscard]] virtual bool has_mail(NodeId node) const = 0;

  /// Blocks until `node` has queued messages or `timeout` elapses; returns
  /// `has_mail(node)`. The synchronous SimNetwork never waits.
  virtual bool wait_for_mail(NodeId node, std::chrono::milliseconds timeout) {
    (void)timeout;
    return has_mail(node);
  }

  [[nodiscard]] virtual const NetworkStats& stats() const noexcept = 0;
  virtual void reset_stats() noexcept = 0;
};

}  // namespace spca
