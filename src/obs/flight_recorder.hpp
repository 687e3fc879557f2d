// Crash flight recorder: a fixed-size in-memory ring of recent telemetry
// (per-interval metric snapshots + free-form events) that is cheap enough
// to leave on for a whole run and is dumped to a timestamped JSONL file
// when something goes wrong — on SIGUSR1 (operator-requested), on
// ProtocolError (peer sent garbage), and from the fatal-signal path — so a
// chaos-run failure ships its last N intervals of telemetry instead of
// nothing.
//
// Disabled by default: `note()`/`capture_metrics()` are no-ops until
// `configure()` names a dump directory, so library code can instrument
// unconditionally without touching processes that never opted in.
//
// Signal integration: `request_dump()` only sets an atomic flag and is
// async-signal-safe; the owning loop calls `poll_dump_request()` at its
// next quiet point to write the file. The fatal-signal handler installed
// by `install_flight_recorder_signals()` instead dumps directly — that
// path is deliberately NOT async-signal-safe (it allocates); it is a
// best-effort last gasp behind a recursion guard, after which the default
// handler is re-raised so the process still dies with the right status.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/bounded_ring.hpp"

namespace spca {

/// One ring entry: an event note or a metrics snapshot.
struct FlightEntry {
  /// Monotonic sequence number (lifetime, survives ring wrap).
  std::uint64_t seq = 0;
  /// Wall-clock capture time (seconds since the Unix epoch).
  double unix_seconds = 0.0;
  /// "event" or "metrics".
  std::string kind;
  /// Short label ("interval", "protocol_error", "kill", ...).
  std::string label;
  /// Interval the entry belongs to; -1 when not interval-scoped.
  std::int64_t interval = -1;
  /// Event text, or the full MetricsRegistry JSON for "metrics" entries.
  std::string detail;
};

/// Serializes one entry as a single JSON object line (no newline). For
/// "metrics" entries `detail` is embedded verbatim as a JSON value under
/// "metrics"; for events it is escaped under "detail".
[[nodiscard]] std::string to_json(const FlightEntry& entry);

class FlightRecorder final {
 public:
  /// Enables recording: dumps land in `dump_dir` (created if missing) and
  /// the ring holds the most recent `capacity` entries.
  void configure(std::string dump_dir, std::size_t capacity = 512);

  [[nodiscard]] bool enabled() const;

  /// Records a free-form event; no-op while disabled.
  void note(std::string label, std::int64_t interval = -1,
            std::string detail = std::string());

  /// Snapshots the global MetricsRegistry JSON into the ring; no-op while
  /// disabled.
  void capture_metrics(std::string label, std::int64_t interval = -1);

  /// Writes the ring to `<dump_dir>/flight-<utc>-<pid>-<n>-<reason>.jsonl`
  /// (oldest entry first, preceded by one header line naming the reason)
  /// and returns the path; returns "" while disabled. Never throws: a
  /// failed write logs a warning and returns "".
  std::string dump(const std::string& reason) noexcept;

  /// Async-signal-safe: flags that the owning loop should dump. Safe to
  /// call from a signal handler or any thread, enabled or not.
  void request_dump() noexcept;

  /// Dumps with reason "signal" iff `request_dump()` fired since the last
  /// poll; returns the dump path or "". Call from loop quiet points.
  std::string poll_dump_request();

  /// Buffered entries, oldest first (for tests).
  [[nodiscard]] std::vector<FlightEntry> snapshot() const;

  /// Lifetime entries recorded (>= snapshot().size()).
  [[nodiscard]] std::uint64_t recorded() const;

  /// Disables recording and clears the ring (tests).
  void reset();

  /// The process-wide recorder all instrumentation sites use.
  [[nodiscard]] static FlightRecorder& global();

 private:
  /// One locked snapshot, each entry's `seq` set to its lifetime index.
  [[nodiscard]] BoundedRing<FlightEntry>::Snapshot numbered_snapshot() const;

  /// Entries are stored with seq 0; the ring's lifetime count numbers them.
  /// configure() sizes the ring, so a recorder that is never enabled
  /// reserves one slot, not 512.
  BoundedRing<FlightEntry> ring_{1};
  mutable std::mutex mutex_;  // guards dump_dir_ and dumps_
  std::string dump_dir_;
  std::uint64_t dumps_ = 0;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> dump_requested_{false};
};

/// Installs SIGUSR1 -> request_dump() plus best-effort dump-then-reraise
/// handlers for fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL).
/// Idempotent; call once from a process's main().
void install_flight_recorder_signals();

}  // namespace spca
