// NOC daemon: wraps the Noc protocol engine in a TCP server loop. Listens
// for the monitors, assembles each interval's volume reports, runs the lazy
// detection protocol (pulling sketches over the wire when the stale model
// raises a hand), and releases the monitors into the next interval with a
// kAdvance frame — the flow control that keeps the multi-process run in the
// simulation's lock-step, and therefore bit-identical to it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/scenario.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"

namespace spca {

/// NOC daemon configuration.
struct NocDaemonConfig {
  NetScenarioConfig scenario;
  /// Hierarchical deployment: number of regional NOCs between the monitors
  /// and this root. 0 = flat (monitors dial the root directly). When > 0
  /// the root's children are the region nodes: phase traffic arrives as
  /// kAggregate messages (dist/aggregate.hpp) and kAdvance goes to the
  /// regions, which relay it to their shards. The detection trajectory is
  /// bit-identical either way.
  std::size_t regions = 0;
  /// Listen endpoint (port 0 picks an ephemeral port, see bound_port()).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// How long to wait for a missing monitor (report or sketch response)
  /// before giving up on the run. Generous by default: a killed monitor
  /// needs time to restart, rebuild, and reconnect.
  std::chrono::milliseconds interval_deadline{60000};
  std::chrono::milliseconds io_timeout{15000};
  /// Durable snapshot directory; empty disables checkpointing. With a valid
  /// snapshot present, run() restores the model and resumes at the
  /// snapshot's interval instead of starting from 0.
  std::string checkpoint_dir;
  /// Snapshot cadence in intervals (0 = shutdown snapshot only).
  std::int64_t checkpoint_every = 0;
  /// Stop after completing intervals < last_interval (-1 = run the whole
  /// scenario). The chaos harness uses this to kill a NOC incarnation
  /// cleanly mid-run; the shutdown snapshot then seeds the next one.
  std::int64_t last_interval = -1;
  /// Fault-injection hook: wraps the TCP transport for all Message-level
  /// traffic (reports, sketch pulls, alarms). Control frames stay on the
  /// raw transport. Keeps net/ ignorant of fault/.
  std::function<std::unique_ptr<Transport>(Transport&)> wrap_transport;
  /// Live status endpoint (obs/status_server.hpp): /metrics, /metrics.json,
  /// /healthz, /spans. -1 disables; 0 binds an ephemeral port (reported via
  /// on_status_port). Polled from the daemon's wait slices, so a slow
  /// scraper can never stall the protocol.
  int status_port = -1;
  std::string status_host = "127.0.0.1";
  /// Called with the bound status port right after the server comes up.
  std::function<void(int)> on_status_port;
};

/// The NOC process body (also runnable on a thread in tests).
class NocDaemon final {
 public:
  explicit NocDaemon(NocDaemonConfig config);
  ~NocDaemon();

  /// Binds the listener and starts accepting monitors; must be called
  /// before run() (split out so tests can learn the ephemeral port first).
  void start();

  /// The bound listen port (valid after start()).
  [[nodiscard]] std::uint16_t bound_port() const noexcept;

  /// Runs the deployment to completion (or until request_stop()) and
  /// returns the trajectory. When resuming from a checkpoint, the returned
  /// distances/alarms cover only the intervals this incarnation processed.
  /// Throws TransportError if a monitor stays away longer than the interval
  /// deadline. Once it returns or throws, dials to bound_port() are refused;
  /// established connections stay up until destruction.
  ScenarioRun run();

  /// Asks a running daemon to wind down at the next poll slice.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Connection re-establishments observed so far (valid after start()).
  [[nodiscard]] std::uint64_t reconnects() const noexcept;

  /// True iff the last run() actually resumed from a checkpoint snapshot
  /// (instead of starting the protocol from interval 0).
  [[nodiscard]] bool restored_from_checkpoint() const noexcept {
    return restored_.load(std::memory_order_relaxed);
  }

 private:
  NocDaemonConfig config_;
  TcpTransport transport_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> restored_{false};
  bool started_ = false;
};

}  // namespace spca
