// The Volume Counter of Sec. IV-A: one bucket U_j per flow, incremented by
// Size on every (FlowID, Size) report, flushed and zeroed at interval end.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/vector.hpp"
#include "traffic/flow.hpp"

namespace spca {

/// Per-interval traffic volume accumulator for a set of aggregated flows.
class VolumeCounter final {
 public:
  explicit VolumeCounter(std::uint32_t num_flows);

  /// Records one (FlowID, Size) observation for the current interval.
  /// O(1) per packet — this is the only per-packet work at a monitor.
  void record(FlowId flow, std::uint32_t size_bytes);

  /// Records a pre-aggregated byte amount (e.g. an upstream NetFlow record
  /// or an interval-level replay); fractional bytes are preserved. The
  /// amount must be finite and non-negative.
  void record_bytes(FlowId flow, double bytes);
  void record(const FlowUpdate& update) {
    record(update.flow, update.size_bytes);
  }

  /// Records a packet given an OD aggregation over `num_routers` routers.
  void record_packet(const Packet& packet, std::uint32_t num_routers);

  /// Ends the current interval: returns the volume vector x_t (length
  /// num_flows) and resets every bucket to zero for the next interval.
  [[nodiscard]] Vector end_interval();

  /// Marks `n` intervals as completed without flushing anything. The batched
  /// ingest path aggregates interval volumes outside the counter, so this
  /// keeps `intervals_completed` (and hence checkpoint state) identical to
  /// the per-interval path. All buckets must be zero (nothing unflushed).
  void advance_intervals(std::uint64_t n);

  /// Current (unflushed) volume of one flow.
  [[nodiscard]] double volume(FlowId flow) const;

  [[nodiscard]] std::uint32_t num_flows() const noexcept {
    return static_cast<std::uint32_t>(buckets_.size());
  }

  /// Number of intervals flushed so far.
  [[nodiscard]] std::uint64_t intervals_completed() const noexcept {
    return intervals_;
  }

  /// Raw unflushed buckets (exposed for checkpointing).
  [[nodiscard]] const std::vector<double>& buckets() const noexcept {
    return buckets_;
  }

  /// Reconstructs a counter from exported state (checkpoint restore).
  [[nodiscard]] static VolumeCounter from_state(std::vector<double> buckets,
                                                std::uint64_t intervals) {
    VolumeCounter counter(static_cast<std::uint32_t>(buckets.size()));
    counter.buckets_ = std::move(buckets);
    counter.intervals_ = intervals;
    return counter;
  }

 private:
  std::vector<double> buckets_;
  std::uint64_t intervals_ = 0;
};

}  // namespace spca
