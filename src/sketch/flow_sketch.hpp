// Per-flow streaming sketch: the local-monitor data structure of Fig. 4.
//
// Combines the variance histogram (stream module) with the owner's shared
// projection window (sketch/projection_window.hpp). Each incoming traffic
// volume x_tj contributes, besides the (n, mu, V) statistics, the additive
// payload  Z_pk = sum x_ij r_ik  and  R_pk = sum r_ik  for k = 1..l
// (Fig. 3 Step 2). A window singleton — one of the newest R elements, each
// a one-element bucket — stores no payload: its (x·r, r) is rebuilt from
// the bucket's (timestamp, mean) and the window when the sketch is emitted,
// and written into the bucket when the element leaves the window. A bucket
// only merges after it left the window, so merges always see payloads.
// At any interval the monitor can emit the sketch vector
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
#include <vector>

#include "common/serialize.hpp"
#include "linalg/vector.hpp"
#include "sketch/projection_window.hpp"
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
///
/// Every call that needs coefficients takes the owner's ProjectionWindow by
/// const reference; the sketch keeps no pointer to it (owners get moved).
/// The window must be the one the sketch was built from, advanced through
/// every interval the sketch is fed.
class FlowSketch final {
 public:
  /// An empty sketch with the window's configuration: window length n,
  /// VH epsilon, sketch length l and span R.
  explicit FlowSketch(const ProjectionWindow& window);

  /// Checkpoint codec of the histogram state, shared by the SPCA, SPCN and
  /// SPCM blobs: i64 now | u64 bucket_count | per bucket: i64 timestamp
  /// | u64 count | f64 mean | f64 variance | f64[] payload. A window
  /// singleton's payload is written as rebuilt from the window, so the
  /// bytes are those of a sketch that stores every payload.
  void save_state(ByteWriter& out, const ProjectionWindow& window) const;

  /// Throws ProtocolError unless a checkpoint's sketch configuration is one
  /// a sketch can run with: window >= 2, 0 < epsilon < 1, sketch_rows >= 1,
  /// a known projection kind, and sparsity >= 1 unless the kind is
  /// very-sparse (that scheme derives its sparsity from the window). The
  /// SPCA, SPCN and SPCM decoders call it before building anything.
  static void validate_config(std::uint64_t window, double epsilon,
                              std::size_t sketch_rows,
                              std::uint8_t projection, double sparsity);

  /// Reads `count` sketches written one after another by save_state, and
  /// refills `window` (which must carry the saving owner's configuration)
  /// from the PRF with the rows of their window singletons. Throws
  /// ProtocolError on a bucket list the histogram could not have produced,
  /// including a window singleton whose payload differs from the window's.
  [[nodiscard]] static std::vector<FlowSketch> restore_states(
      ByteReader& in, std::size_t count, ProjectionWindow& window);

  /// The underlying histogram (exposed for checkpointing and tests).
  [[nodiscard]] const VarianceHistogram& histogram() const noexcept {
    return histogram_;
  }

  /// Feeds the traffic volume of this flow for interval `t` (strictly
  /// increasing across calls). The window must hold t's row.
  void add(std::int64_t t, double volume, const ProjectionWindow& window);

  /// Feeds a block of interval updates (timestamps strictly increasing
  /// within the batch and relative to earlier calls); the window must hold
  /// every row of the block. Bit-identical to calling add() once per
  /// element at every batch size.
  void add_batch(std::span<const SketchUpdate> updates,
                 const ProjectionWindow& window);

  /// Emits the length-l sketch vector z-hat of eq. (17).
  [[nodiscard]] Vector sketch(const ProjectionWindow& window) const;

  /// The (mean, count) pair a sketch report carries alongside z-hat.
  struct Report {
    double mean = 0.0;
    std::uint64_t count = 0;
  };

  /// One-pass emission of the full report block: resizes `z` to l if
  /// needed, fills it with z-hat and returns (mean, count) from the same
  /// bucket aggregate. The Z and R sums fold the buckets oldest-first, a
  /// window singleton's terms rebuilt from the window.
  Report report_into(Vector& z, const ProjectionWindow& window) const;

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
  /// Bytes of the sketch's own buckets (a window singleton holds no
  /// payload); the owner counts its window once on top.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return histogram_.memory_bytes();
  }

 private:
  /// add() without the metrics.
  void push(std::int64_t t, double volume, const ProjectionWindow& window);

  std::size_t rows_;
  std::size_t span_;  // R: the newest span_ buckets are window singletons
  VarianceHistogram histogram_;  // payload = [Z_1..Z_l, R_1..R_l]
};

}  // namespace spca
