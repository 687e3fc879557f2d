// Regional NOC daemon: wraps a RegionalNoc in a TCP event loop. Listens for
// its shard of monitor daemons, dials the root NOC, and per interval
// forwards ONE merged aggregate per phase upstream while relaying sketch
// requests and kAdvance frames downstream — the middle tier of the
// hierarchical deployment, invisible to the detection trajectory.
//
// Restart story: the node holds no sketch or model state, so its durable
// snapshot is only a small identity + progress blob (region, shard, next
// interval). After a restart the shard's monitors re-send their current
// interval on reconnect, the merge is reproduced bit-identically, and the
// root deduplicates whatever a racing first copy also delivered. A request
// lost with the old connection is re-issued by the root when the new
// incarnation dials in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/scenario.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"

namespace spca {

/// Regional daemon configuration.
struct RegionalDaemonConfig {
  NetScenarioConfig scenario;
  /// Total regions of the hierarchy and this daemon's region index.
  std::size_t regions = 2;
  std::size_t region = 0;
  /// Listen endpoint for the shard's monitors (port 0 = ephemeral).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// Root NOC endpoint to dial.
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
  RetryPolicy retry;
  std::chrono::milliseconds io_timeout{15000};
  /// How long to wait with no progress (missing monitor or silent root)
  /// before giving up on the run.
  std::chrono::milliseconds interval_deadline{60000};
  /// Durable snapshot directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Snapshot cadence in intervals (0 = shutdown snapshot only).
  std::int64_t checkpoint_every = 0;
  /// Write a snapshot at shutdown. Chaos tests disable this to model a
  /// crash kill that only leaves periodic snapshots; the next incarnation
  /// then starts from a stale interval and catches up from its monitors'
  /// re-sends (the node has no sketch state to lose).
  bool final_checkpoint = true;
  /// Stop after relaying the advance past intervals < last_interval
  /// (-1 = run the whole scenario). The chaos harness uses this to kill a
  /// regional incarnation cleanly mid-run.
  std::int64_t last_interval = -1;
  /// Fault-injection hook: wraps the transport for Message-level traffic.
  std::function<std::unique_ptr<Transport>(Transport&)> wrap_transport;
  /// Live status endpoint (obs/status_server.hpp); -1 disables, 0 binds an
  /// ephemeral port (reported via on_status_port).
  int status_port = -1;
  std::string status_host = "127.0.0.1";
  std::function<void(int)> on_status_port;
};

/// What a finished run did.
struct RegionalDaemonResult {
  /// First interval not yet fully relayed (== scenario end on success).
  std::int64_t next_interval = 0;
  /// Merges performed (both phases).
  std::uint64_t merges = 0;
  /// Connection re-establishments observed by the transport.
  std::uint64_t reconnects = 0;
  /// Send-side wire accounting of this node.
  NetworkStats stats;
  /// True when progress resumed from a checkpoint snapshot.
  bool restored_from_checkpoint = false;
};

/// The regional process body (also runnable on a thread in tests).
class RegionalDaemon final {
 public:
  explicit RegionalDaemon(RegionalDaemonConfig config);
  ~RegionalDaemon();

  /// Binds the listener and dials the root; must precede run().
  void start();

  /// The bound listen port (valid after start()).
  [[nodiscard]] std::uint16_t bound_port() const noexcept;

  /// Runs to completion (or until request_stop()); returns the summary.
  /// Throws TransportError when nothing makes progress past the deadline.
  /// Once it returns or throws, dials to bound_port() are refused;
  /// established connections stay up until destruction.
  RegionalDaemonResult run();

  /// Asks a running daemon to wind down at the next poll slice.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  RegionalDaemonConfig config_;
  TcpTransport transport_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

/// Encodes/decodes the regional progress snapshot ('SPCR' blob): hierarchy
/// identity (regions, region, shard) plus the next interval. Exposed for
/// tests; decode throws ProtocolError on a malformed blob.
[[nodiscard]] std::vector<std::byte> encode_region_snapshot(
    std::size_t regions, std::size_t region,
    const std::vector<NodeId>& monitors, std::int64_t next_interval);
struct RegionSnapshot {
  std::size_t regions = 0;
  std::size_t region = 0;
  std::vector<NodeId> monitors;
  std::int64_t next_interval = 0;
};
[[nodiscard]] RegionSnapshot decode_region_snapshot(
    const std::vector<std::byte>& blob);

}  // namespace spca
