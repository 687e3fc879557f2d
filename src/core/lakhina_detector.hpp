// Exact sliding-window PCA detector: the Lakhina et al. (SIGCOMM'04)
// baseline of Sec. II/III, run in streaming fashion.
//
// The textbook formulation recomputes the SVD of the full n x m window
// matrix every interval at O(n m^2) cost — exactly the bottleneck the paper
// attacks. This implementation is mathematically identical but maintains
// the window's Gram matrix incrementally with rank-one updates (add the new
// row, subtract the expired row), so the per-interval cost is the O(m^3)
// eigendecomposition plus O(m^2) bookkeeping, and the O(n m) window storage
// remains. The asymptotic *space* behaviour the paper criticizes is
// unchanged; only constant-factor work is saved so the benches can afford
// to run the baseline at full window lengths.
//
// For numerical health the accumulators store shifted rows (x - c for a
// fixed reference c, the first observed row), which removes the huge
// common magnitude of traffic volumes before squaring.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "core/detector.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "pca/backend/model_backend.hpp"

namespace spca {

/// Configuration of the exact PCA baseline.
struct LakhinaConfig {
  /// Sliding-window length n (number of intervals).
  std::size_t window = 2016;
  /// False-alarm rate of the Q-statistic threshold (the paper's beta=0.01).
  double alpha = 0.01;
  /// Normal-subspace selection.
  RankPolicy rank_policy = RankPolicy::fixed(6);
  /// Recompute the eigendecomposition every this many intervals (1 = always,
  /// the exact method; larger values trade recency for speed).
  std::size_t recompute_period = 1;
  /// Model-fitting strategy (exact | warm).
  ModelBackendKind backend = ModelBackendKind::kWarm;
};

/// The exact PCA-subspace detector.
class LakhinaDetector final : public Detector {
 public:
  LakhinaDetector(std::size_t dimensions, const LakhinaConfig& config);

  Detection observe(std::int64_t t, const Vector& x) override;

  [[nodiscard]] std::string name() const override { return "lakhina-exact"; }

  /// The fitted model (empty Optional before the window fills).
  [[nodiscard]] const std::optional<PcaModel>& model() const noexcept {
    return model_;
  }
  [[nodiscard]] std::size_t normal_rank() const noexcept { return rank_; }

  /// Per-interval anomaly distances for every candidate rank 1..m-1 for the
  /// *last observed* vector — lets the evaluation harness sweep r without
  /// rerunning the stream. Entry [r-1] is d(y*, r).
  [[nodiscard]] Vector distance_profile() const;

  /// Number of eigendecompositions performed (cost accounting).
  [[nodiscard]] std::uint64_t model_computations() const noexcept {
    return model_computations_;
  }

  /// The model-fitting strategy in use.
  [[nodiscard]] const ModelBackend& backend() const noexcept {
    return *backend_;
  }

 private:
  void refresh_model();

  std::size_t m_;
  LakhinaConfig config_;
  std::unique_ptr<ModelBackend> backend_;
  std::deque<Vector> window_;  // shifted rows (x - shift_)
  std::optional<Vector> shift_;
  Vector sum_;    // sum of shifted rows
  Matrix gram_;   // sum of (shifted row)(shifted row)^T
  std::optional<PcaModel> model_;
  std::size_t rank_ = 1;
  double threshold_squared_ = 0.0;
  std::size_t since_recompute_ = 0;
  std::uint64_t model_computations_ = 0;
  Vector last_centered_;  // centered last observation (for distance_profile)
};

}  // namespace spca
