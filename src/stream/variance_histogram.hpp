// Variance histogram: epsilon-approximate variance over a sliding window.
//
// Implements the bucket-list algorithm of Zhang & Guan (PODS'07) exactly as
// restated in Fig. 3 of the paper, including the three merge rules
//   Rule 1: V_{A u B} - V_B <= (eps/5) V_B
//   Rule 2: n_A <= (eps/10) n_B
//   Rule 3: n_A + n_B <= n/2
// and the merge equations (11)-(15). Each bucket additionally carries an
// arbitrary *additive payload* vector, merged by element-wise addition; the
// sketch module uses it for the random-projection partial sums Z_pk and R_pk
// (eq. 14, 15) without this module depending on any random-number machinery.
// A bucket may also be stored *without* its payload (add_without_payload):
// its owner rebuilds it on demand and must attach it (attach_payload) before
// the bucket can merge. Summing payloads across buckets is the owner's fold.
//
// Guarantee (Lemma 1): (1 - eps) V <= V-hat <= V using O((1/eps) log n)
// buckets and O(1) amortized update time.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace spca {

/// One bucket of the variance histogram: summary statistics of a contiguous
/// subsequence of window elements (Sec. IV-B of the paper).
struct VhBucket {
  /// Time stamp of the *oldest* element summarized by the bucket; the bucket
  /// expires (and is dropped whole) once this leaves the window, which is
  /// what makes the estimate an underestimate.
  std::int64_t timestamp = 0;
  /// Number of elements summarized (n_pj).
  std::uint64_t count = 0;
  /// Mean of the summarized elements (mu_pj).
  double mean = 0.0;
  /// Sum of squared deviations from the bucket mean (V_pj, eq. 10 form).
  double variance = 0.0;
  /// Additive side sums (the sketch module stores Z_p1..Z_pl, R_p1..R_pl);
  /// empty for a bucket added without its payload.
  std::vector<double> payload;
};

/// Merges two buckets with equations (11)-(15); payloads add element-wise.
[[nodiscard]] VhBucket merge_buckets(const VhBucket& a, const VhBucket& b);

/// In-place variant: merges `b` into `a` reusing `a`'s payload storage (the
/// per-merge allocation would otherwise run once per flow per compaction).
/// Performs the identical floating-point operations as `merge_buckets`.
void merge_into(VhBucket& a, const VhBucket& b);

/// The sliding-window variance histogram.
class VarianceHistogram final {
 public:
  /// `window` is the sliding-window length n (in time steps), `epsilon` the
  /// approximation parameter of Lemma 1, `payload_size` the number of
  /// additive side sums each element contributes.
  VarianceHistogram(std::uint64_t window, double epsilon,
                    std::size_t payload_size = 0);

  /// Reconstructs a histogram from previously exported state (see
  /// `buckets()` / `now()`): the checkpoint/restore path. `buckets` must be
  /// newest-first with strictly decreasing timestamps no later than `now`,
  /// counts of at least 1, and payloads of length `payload_size` (or empty
  /// for a one-element bucket); throws ProtocolError otherwise.
  [[nodiscard]] static VarianceHistogram from_state(
      std::uint64_t window, double epsilon, std::size_t payload_size,
      std::vector<VhBucket> buckets, std::int64_t now);

  /// Inserts element `x` observed at time `t` (strictly increasing across
  /// calls) with the element's payload contribution (length `payload_size`).
  void add(std::int64_t t, double x, std::span<const double> payload = {});

  /// Inserts element `x` at time `t` as a one-element bucket without its
  /// payload. The caller must give the bucket its payload (attach_payload)
  /// before a merge can reach it; compaction checks this.
  void add_without_payload(std::int64_t t, double x);

  /// Gives the payload-less bucket `index` (newest-first) a payload buffer
  /// of length `payload_size` for the caller to fill, reusing a recycled
  /// buffer when one is spare. Returns the buffer.
  std::span<double> attach_payload(std::size_t index);

  /// The (timestamp, count, mean, variance) of the merge of all live
  /// buckets: the B_all of eq. (17), whose `variance` is the V-hat of
  /// Lemma 1. The returned payload is empty; summing payloads is the
  /// owner's fold (FlowSketch::report_into).
  [[nodiscard]] VhBucket aggregate() const;

  /// Estimated variance (sum of squared deviations) over the window.
  [[nodiscard]] double variance_estimate() const;

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] std::size_t payload_size() const noexcept {
    return payload_size_;
  }
  [[nodiscard]] std::int64_t now() const noexcept { return now_; }

  /// Lifetime count of bucket merges performed by the Rule 1-3 compaction;
  /// instrumentation reads the delta around `add` (the stream layer itself
  /// stays free of any metrics dependency).
  [[nodiscard]] std::uint64_t merge_count() const noexcept { return merges_; }

  /// Live buckets, newest first (exposed for tests and space accounting).
  [[nodiscard]] const std::deque<VhBucket>& buckets() const noexcept {
    return buckets_;
  }

  /// Bytes of summary state held (for the space-complexity bench).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Steps 1-2 of Fig. 3: expires old buckets and pushes `x` as B_1.
  VhBucket& push(std::int64_t t, double x);
  void expire(std::int64_t t);
  void compact();
  void recycle(VhBucket& bucket);
  [[nodiscard]] std::vector<double> take_spare();

  std::uint64_t window_;
  double epsilon_;
  std::size_t payload_size_;
  // Rules 2 and 3 can never both hold (every n <= 4003 at eps = 0.01), so
  // compact() has nothing to do; see the constructor.
  bool never_merges_;
  std::int64_t now_ = 0;
  bool has_elements_ = false;
  std::uint64_t merges_ = 0;
  std::deque<VhBucket> buckets_;  // index 0 = newest (B_1j of the paper)
  // Payload buffers of expired/merged buckets, kept for reuse: the ingest
  // hot path runs one add() per flow per interval, and the O(l) payload
  // allocation per add would otherwise dominate it. Values are always fully
  // overwritten on reuse, so recycling cannot change any result.
  std::vector<std::vector<double>> spare_payloads_;
};

}  // namespace spca
