// Per-flow streaming sketch: the local-monitor data structure of Fig. 4.
//
// Combines the variance histogram (stream module) with the shared
// counter-based projection source (rand module). Each incoming traffic
// volume x_tj contributes, besides the (n, mu, V) statistics, the additive
// payload  Z_pk = sum x_ij r_ik  and  R_pk = sum r_ik  for k = 1..l
// (Fig. 3 Step 2). At any interval the monitor can emit the sketch vector
//
//   z-hat_kj = (Z_all,k - mu_all * R_all,k) / sqrt(l)          (eq. 17)
//
// which approximates the random projection of the *centered* traffic column
// within the sliding window (Lemma 4).
//
// Note on eq. (17): the paper prints Z - n*mu*R, but the quantity that
// approximates the centered projection sum_i (x_ij - mean_j) r_ik is
// Z - mean*R (each of the n terms subtracts mean once, and R already sums n
// coefficient values). We implement Z - mu*R; with the paper's extra factor
// n the sketch norm would be off by orders of magnitude and Lemma 4 could
// not hold. DESIGN.md records this as a presumed typo.
#pragma once

#include <cstdint>
#include <span>

#include "common/serialize.hpp"
#include "linalg/vector.hpp"
#include "rand/projection_source.hpp"
#include "stream/variance_histogram.hpp"

namespace spca {

/// One pre-aggregated interval update, the unit of FlowSketch::add_batch.
struct SketchUpdate {
  /// Interval timestamp (strictly increasing across a batch).
  std::int64_t t = 0;
  /// Aggregated traffic volume of the flow in that interval.
  double volume = 0.0;
};

/// Streaming sketch of one aggregated flow over a sliding window.
class FlowSketch final {
 public:
  /// `window` = sliding-window length n, `epsilon` = VH approximation
  /// parameter, `sketch_rows` = l, `projection` = the shared coefficient
  /// source (copied; two monitors constructing from equal sources stay in
  /// sync by construction).
  FlowSketch(std::uint64_t window, double epsilon, std::size_t sketch_rows,
             const ProjectionSource& projection);

  /// Checkpoint codec of the histogram state, shared by the SPCA, SPCN and
  /// SPCM blobs: i64 now | u64 bucket_count | per bucket: i64 timestamp
  /// | u64 count | f64 mean | f64 variance | f64[] payload.
  void save_state(ByteWriter& out) const;

  /// Throws ProtocolError unless a checkpoint's sketch configuration is one
  /// a sketch can run with: window >= 2, 0 < epsilon < 1, sketch_rows >= 1,
  /// a known projection kind, and sparsity >= 1 unless the kind is
  /// very-sparse (that scheme derives its sparsity from the window). The
  /// SPCA, SPCN and SPCM decoders call it before building anything.
  static void validate_config(std::uint64_t window, double epsilon,
                              std::size_t sketch_rows,
                              std::uint8_t projection, double sparsity);

  /// Reads what save_state wrote. The configuration arguments must be the
  /// saving sketch's (checked by validate_config) or subsequent updates
  /// will be incoherent. Throws ProtocolError on a bucket list the
  /// histogram could not have produced.
  [[nodiscard]] static FlowSketch restore_state(
      ByteReader& in, std::uint64_t window, double epsilon,
      std::size_t sketch_rows, const ProjectionSource& projection);

  /// The underlying histogram (exposed for checkpointing and tests).
  [[nodiscard]] const VarianceHistogram& histogram() const noexcept {
    return histogram_;
  }

  /// Feeds the traffic volume of this flow for interval `t` (strictly
  /// increasing across calls).
  void add(std::int64_t t, double volume);

  /// Feeds a block of interval updates (timestamps strictly increasing
  /// within the batch and relative to earlier calls). Bit-identical to
  /// calling add() once per element at every batch size; the tug-of-war
  /// payload blocks come from the batched SIMD kernel behind runtime CPU
  /// dispatch (sketch/projection_batch.hpp), which is exact integer/sign
  /// arithmetic and therefore cannot perturb the trajectory.
  void add_batch(std::span<const SketchUpdate> updates);

  /// Emits the length-l sketch vector z-hat of eq. (17).
  [[nodiscard]] Vector sketch() const;

  /// Allocation-free emission for per-interval hot paths: resizes `out` to l
  /// if needed and fills it with z-hat.
  void sketch_into(Vector& out) const;

  /// The (mean, count) pair a sketch report carries alongside z-hat.
  struct Report {
    double mean = 0.0;
    std::uint64_t count = 0;
  };

  /// One-pass emission of the full report block: fills `z` with z-hat and
  /// returns (mean, count) from the same bucket aggregate, instead of the
  /// three separate aggregate passes of sketch() + mean() + count().
  Report report_into(Vector& z) const;

  /// Mean traffic volume over the (approximated) window: the mu_all used by
  /// the NOC to center incoming measurement vectors.
  [[nodiscard]] double mean() const;

  /// Number of window elements currently summarized.
  [[nodiscard]] std::uint64_t count() const;

  /// The VH variance estimate V-hat (Lemma 1).
  [[nodiscard]] double variance_estimate() const;

  [[nodiscard]] std::size_t sketch_rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t window() const noexcept {
    return histogram_.window();
  }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return histogram_.bucket_count();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return histogram_.memory_bytes();
  }
  [[nodiscard]] const ProjectionSource& projection() const noexcept {
    return projection_;
  }

 private:
  std::size_t rows_;
  ProjectionSource projection_;
  VarianceHistogram histogram_;  // payload = [Z_1..Z_l, R_1..R_l]
  // Reused per-call buffers: these run once per flow per interval, so the
  // O(l) allocations would otherwise dominate small-flow monitors. The
  // mutable aggregate scratch makes the const readers (sketch/mean/count)
  // safe to call concurrently on *distinct* FlowSketch objects but NOT on a
  // shared one — which is the parallel layer's fan-out unit anyway.
  std::vector<double> payload_scratch_;
  mutable VhBucket aggregate_scratch_;
};

}  // namespace spca
