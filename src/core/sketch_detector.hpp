// The paper's contribution: sketch-based streaming PCA anomaly detection
// (Sec. IV), single-process form. The dist module runs the same logic split
// across simulated monitors and a NOC; this class is the reference
// implementation and the one the evaluation benches sweep.
//
// Per interval, each flow's volume updates its FlowSketch (variance
// histogram + projection partial sums) in O(l) amortized time. Detection
// fits PCA to the l x m sketch matrix Z-hat instead of the n x m window:
// O(m^2 l) instead of O(m^2 n) (Theorem 1). In lazy mode (Sec. IV-C) the
// model is refreshed only when the distance under the stale model exceeds
// the stale threshold; an alarm is raised only if the refreshed model still
// flags the vector.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "pca/backend/model_backend.hpp"
#include "rand/projection_source.hpp"
#include "sketch/flow_sketch.hpp"
#include "sketch/projection_window.hpp"

namespace spca {

/// Configuration of the sketch-based streaming detector.
struct SketchDetectorConfig {
  /// Sliding-window length n.
  std::size_t window = 2016;
  /// Variance-histogram approximation parameter (the paper uses 0.01).
  double epsilon = 0.01;
  /// Sketch length l (the paper sweeps 10..1000).
  std::size_t sketch_rows = 200;
  /// False-alarm rate of the Q-statistic threshold.
  double alpha = 0.01;
  /// Normal-subspace selection.
  RankPolicy rank_policy = RankPolicy::fixed(6);
  /// Projection coefficient distribution (Sec. V-B).
  ProjectionKind projection = ProjectionKind::kGaussian;
  /// Sparsity parameter s of the sparse schemes.
  double sparsity = 3.0;
  /// Seed of the shared coefficient source.
  std::uint64_t seed = 42;
  /// Lazy mode: refresh the PCA only when the stale model raises a hand.
  bool lazy = true;
  /// Model-fitting strategy (exact | warm).
  ModelBackendKind backend = ModelBackendKind::kWarm;
};

/// Sketch-based streaming PCA detector.
class SketchDetector final : public Detector {
 public:
  SketchDetector(std::size_t dimensions, const SketchDetectorConfig& config);

  Detection observe(std::int64_t t, const Vector& x) override;

  [[nodiscard]] std::string name() const override { return "sketch-pca"; }

  [[nodiscard]] const SketchDetectorConfig& config() const noexcept {
    return config_;
  }

  /// The current sketch matrix Z-hat (l x m), assembled from all flows.
  [[nodiscard]] Matrix sketch_matrix() const;

  /// Current window means mu_all,j reported by the sketches.
  [[nodiscard]] Vector sketch_means() const;

  [[nodiscard]] const PcaModel& model() const noexcept { return model_; }
  [[nodiscard]] std::size_t normal_rank() const noexcept { return rank_; }

  /// The model-fitting strategy in use (for tests and checkpoint codecs).
  [[nodiscard]] const ModelBackend& backend() const noexcept {
    return *backend_;
  }

  /// Distances for the candidate ranks 1..k-1 of the last observation,
  /// k = min(l, m) (see LakhinaDetector::distance_profile).
  [[nodiscard]] Vector distance_profile() const;

  /// Number of PCA recomputations (sketch pulls in the distributed view).
  [[nodiscard]] std::uint64_t model_computations() const noexcept {
    return model_computations_;
  }

  /// Total bytes of detector state: every flow sketch's summary (the
  /// Theorem 1 O(w log n) part), their shared projection window, and the
  /// detector's fixed-size members — the fitted model, the warm basis and
  /// the retained last-centered vector. Mirrored into the
  /// `spca.sketch.memory_bytes` gauge on every model refresh.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Serializes the complete detector state — configuration, every flow's
  /// histogram buckets, the fitted model, and progress counters — so a
  /// restarted process can resume mid-window without re-observing weeks of
  /// traffic. The format is versioned; see sketch_detector_io.cpp.
  [[nodiscard]] std::vector<std::byte> save_state() const;

  /// Reconstructs a detector from `save_state` output. The restored
  /// detector continues the stream bit-for-bit identically to the original
  /// (see the checkpoint tests). Throws ProtocolError on a malformed or
  /// version-mismatched blob. When `expected_backend` is set, a blob
  /// written under a different model backend is rejected as ProtocolError:
  /// backend state is not interchangeable, and silently refitting cold
  /// would break the bit-identical-restore guarantee.
  [[nodiscard]] static SketchDetector restore_state(
      const std::vector<std::byte>& blob,
      std::optional<ModelBackendKind> expected_backend = std::nullopt);

  /// Intervals observed so far (warm-up progress).
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }

 private:
  void refresh_model();

  std::size_t m_;
  SketchDetectorConfig config_;
  std::unique_ptr<ModelBackend> backend_;
  ProjectionWindow window_;  // advanced once per observed interval
  std::vector<FlowSketch> flows_;
  std::uint64_t observed_ = 0;
  PcaModel model_;
  std::size_t rank_ = 1;
  double threshold_squared_ = 0.0;
  std::uint64_t model_computations_ = 0;
  Vector last_centered_;
};

}  // namespace spca
