// End-to-end interval tracing: one Span per pipeline stage per interval,
// keyed by the interval id that already travels through the frame protocol,
// so a single interval's wall-clock breakdown (ingest absorb -> sketch
// close -> wire tx -> NOC feed -> refit -> decision) is reconstructible
// across processes by merging each process's JSONL export.
//
// Spans carry two clocks: `start_unix_seconds` is the system (wall) clock,
// comparable across processes on one host, and `duration_seconds` is
// measured on the monotonic clock, immune to wall-clock steps. Recording a
// span also feeds the `spca.latency.<stage>` histogram of the global
// MetricsRegistry, so the per-stage latency picture shows up in /metrics
// without any post-processing.
//
// The simulated (SimNetwork) and TCP deployments instrument the exact same
// LocalMonitor/Noc call sites, so both produce structurally identical span
// trees — `structural_signature` is the comparison the parity tests use.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/bounded_ring.hpp"

namespace spca {

/// Canonical stage names, in pipeline order.
inline constexpr const char* kStageIngestAbsorb = "ingest_absorb";
inline constexpr const char* kStageSketchClose = "sketch_close";
inline constexpr const char* kStageWireTx = "wire_tx";
inline constexpr const char* kStageNocFeed = "noc_feed";
inline constexpr const char* kStageRefit = "refit";
inline constexpr const char* kStageDecision = "decision";

/// One timed pipeline stage of one interval on one node.
struct Span {
  /// Which node ran the stage ("monitor1", "noc", "replay", ...).
  std::string node;
  /// Stage name (one of the kStage* constants).
  std::string stage;
  /// The interval id the stage worked on — the cross-process trace key.
  std::int64_t interval = 0;
  /// Wall-clock start (seconds since the Unix epoch; system clock).
  double start_unix_seconds = 0.0;
  /// Stage duration (monotonic clock).
  double duration_seconds = 0.0;

  [[nodiscard]] bool operator==(const Span&) const = default;
};

/// Thread-safe bounded ring (BoundedRing) of Spans: when full the oldest
/// span is overwritten and `recorded()` keeps the lifetime total.
class SpanLog final {
 public:
  explicit SpanLog(std::size_t capacity = 65536) : ring_(capacity) {}

  /// Records one span and feeds spca.latency.<stage> in the global
  /// MetricsRegistry.
  void record(Span span);

  /// Buffered spans, oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const {
    return ring_.snapshot().items;
  }

  /// Total spans ever recorded (>= snapshot().size()).
  [[nodiscard]] std::uint64_t recorded() const { return ring_.recorded(); }

  void clear() { ring_.clear(); }

  /// One JSON object per line, oldest first.
  [[nodiscard]] std::string to_jsonl() const;

  /// Parses `to_jsonl` output back into spans; throws InputError on a
  /// malformed line. Blank lines are skipped, so the JSONL files of several
  /// processes can be concatenated and parsed as one trace.
  [[nodiscard]] static std::vector<Span> parse_jsonl(const std::string& text);

  /// The process-wide span log every instrumentation site records to.
  [[nodiscard]] static SpanLog& global();

 private:
  BoundedRing<Span> ring_;
};

/// Serializes one span as a single JSON object (no trailing newline).
[[nodiscard]] std::string to_json(const Span& span);

/// RAII span probe: times the enclosing scope and records it into
/// SpanLog::global() on destruction. `dismiss()` cancels the recording
/// (error paths that should not pollute the trace).
class ScopedSpan final {
 public:
  ScopedSpan(std::string node, const char* stage, std::int64_t interval);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  void dismiss() noexcept { active_ = false; }

 private:
  Span span_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = true;
};

/// The (interval, node, stage) shape of a trace with all timing stripped:
/// two runs of the same deployment produce equal signatures iff they ran
/// the same stages on the same nodes for the same intervals — the
/// "structurally identical span trees" check of the sim-vs-TCP parity
/// tests.
[[nodiscard]] std::vector<std::string> structural_signature(
    const std::vector<Span>& spans);

/// Human-readable per-interval latency breakdown: one block per interval,
/// stages ordered by wall-clock start, with durations in microseconds.
[[nodiscard]] std::string render_breakdown(const std::vector<Span>& spans);

}  // namespace spca
