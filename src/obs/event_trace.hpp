// Structured trail of detection decisions: one event per evaluated
// interval, recording exactly the quantities the lazy protocol of Sec. IV-C
// branches on, kept in a bounded ring buffer and exportable as JSON lines
// for bench post-processing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/bounded_ring.hpp"

namespace spca {

/// One detection decision. `refreshed` distinguishes a lazy refresh (the
/// stale model raised a hand and fresh sketches were pulled) from a pass on
/// the stale model; `alarm` is the final verdict after any re-check.
struct DetectionEvent {
  /// Which detector decided ("sketch-pca", "lakhina-exact", "noc", ...).
  std::string detector;
  std::int64_t interval = 0;
  /// Squared SPE distance d^2(y*) of eq. (19).
  double distance_squared = 0.0;
  /// Squared Q-statistic threshold delta^2 of eq. (23).
  double threshold_squared = 0.0;
  /// Normal-subspace size r in force for this decision.
  std::size_t rank = 0;
  /// True if the model was recomputed for this interval.
  bool refreshed = false;
  bool alarm = false;

  [[nodiscard]] bool operator==(const DetectionEvent&) const = default;
};

/// Thread-safe bounded ring (BoundedRing) of DetectionEvents. When full,
/// the oldest event is overwritten; `recorded()` keeps the lifetime total so
/// post-processors can tell how much was dropped.
class EventTrace final {
 public:
  explicit EventTrace(std::size_t capacity = 65536) : ring_(capacity) {}

  void record(DetectionEvent event) { ring_.push(std::move(event)); }

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<DetectionEvent> snapshot() const {
    return ring_.snapshot().items;
  }

  /// Total events ever recorded (>= snapshot().size()).
  [[nodiscard]] std::uint64_t recorded() const { return ring_.recorded(); }

  void clear() { ring_.clear(); }

  /// One JSON object per line, oldest first (the export format documented
  /// in README.md's Observability section).
  [[nodiscard]] std::string to_jsonl() const;

  /// Parses `to_jsonl` output back into events; throws InputError on a
  /// malformed line. Blank lines are skipped.
  [[nodiscard]] static std::vector<DetectionEvent> parse_jsonl(
      const std::string& text);

  /// The process-wide trace every built-in instrumentation site records to.
  [[nodiscard]] static EventTrace& global();

 private:
  BoundedRing<DetectionEvent> ring_;
};

/// Serializes one event as a single JSON object (no trailing newline).
[[nodiscard]] std::string to_json(const DetectionEvent& event);

}  // namespace spca
