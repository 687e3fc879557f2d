// Detector interface shared by the exact Lakhina baseline and the paper's
// sketch-based streaming detector.
#pragma once

#include <cstdint>
#include <string>

#include "common/serialize.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "pca/pca_model.hpp"

namespace spca {

/// Verdict for one measurement interval.
struct Detection {
  /// True once the detector has a full window and produced a real verdict.
  bool ready = false;
  /// Alarm: anomaly distance exceeded the Q-statistic threshold.
  bool alarm = false;
  /// The SPE anomaly distance d(y*) of eq. (5)/(19).
  double distance = 0.0;
  /// The distance threshold (sqrt of the Q-statistic delta^2).
  double threshold = 0.0;
  /// Size r of the normal subspace used.
  std::size_t normal_rank = 0;
  /// True if this observation triggered a model recomputation (for the
  /// sketch detector: a sketch pull in lazy mode).
  bool model_refreshed = false;
};

/// How the size r of the normal subspace is chosen (Sec. IV-D).
struct RankPolicy {
  enum class Kind {
    kFixed,   ///< a fixed r (the paper's evaluation sweeps r = 1..10)
    kEnergy,  ///< smallest r capturing `energy_fraction` of spectral energy
    kKSigma,  ///< the 3-sigma heuristic on fitted projections
    kScree,   ///< Cattell's Scree test on the spectrum (Sec. IV-D)
  };
  Kind kind = Kind::kFixed;
  std::size_t fixed_rank = 6;
  double energy_fraction = 0.9;
  double ksigma_k = 3.0;
  double scree_knee = 0.1;

  [[nodiscard]] static RankPolicy fixed(std::size_t r) {
    return {Kind::kFixed, r, 0.9, 3.0, 0.1};
  }
  [[nodiscard]] static RankPolicy energy(double fraction) {
    return {Kind::kEnergy, 0, fraction, 3.0, 0.1};
  }
  [[nodiscard]] static RankPolicy ksigma_policy(double k) {
    return {Kind::kKSigma, 0, 0.9, k, 0.1};
  }
  [[nodiscard]] static RankPolicy scree(double knee_fraction) {
    return {Kind::kScree, 0, 0.9, 3.0, knee_fraction};
  }

  /// Applies the policy. `fitted_data` is the matrix the model was fitted
  /// on (needed by kKSigma; may be empty for the other kinds). The result
  /// is clamped to [1, k-1], k = model.component_count() (min(l, m) for a
  /// sketch model), so both subspaces are nonempty.
  [[nodiscard]] std::size_t select(const PcaModel& model,
                                   const Matrix& fitted_data) const;

  /// The largest rank select returns for a model of k components; the
  /// checkpoint decoders reject any other.
  [[nodiscard]] static std::size_t max_rank(std::size_t k) noexcept {
    return k > 1 ? k - 1 : 1;
  }
};

/// Checkpoint codec shared by the SPCA and SPCN blobs: u8 kind
/// | u64 fixed_rank | f64 energy_fraction | f64 ksigma_k | f64 scree_knee.
/// read_rank_policy throws ProtocolError on an unknown kind or on a
/// parameter the selection rules reject.
void write_rank_policy(ByteWriter& out, const RankPolicy& policy);
[[nodiscard]] RankPolicy read_rank_policy(ByteReader& in);

/// A streaming network-wide anomaly detector: consumes one measurement
/// vector per interval and yields a verdict.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Feeds the measurement vector of interval `t` (strictly increasing) and
  /// returns the verdict for that interval.
  virtual Detection observe(std::int64_t t, const Vector& x) = 0;

  /// Human-readable identifier for result tables.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace spca
