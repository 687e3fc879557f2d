// The PCA subspace model of Sec. III-B/III-C, usable both for the exact
// Lakhina baseline (built from the full n x m window matrix Y) and for the
// paper's method (built from the l x m sketch matrix Z-hat).
//
// A model consists of the singular values (eta_j or lambda-hat_j), the
// principal components (right singular vectors, orthonormal columns in
// R^m), the column means used to center new measurement vectors, and the
// effective sample count n used to convert singular values into per-component
// standard deviations (eq. 9). A sketch model keeps k = min(l, m) components:
// an l x m sketch has rank at most l, so the other m - l directions carry no
// spectrum, only rounding noise.
#pragma once

#include <cstdint>

#include "common/serialize.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace spca {

/// Fitted PCA model: basis, spectrum, and centering information.
class PcaModel final {
 public:
  PcaModel() = default;

  /// Fits from a raw (uncentered) n x m measurement matrix X: centers the
  /// columns and takes the SVD of Y (exact Lakhina-style PCA).
  [[nodiscard]] static PcaModel from_data(const Matrix& x);

  /// Reassembles a model from its parts (model backends, checkpoint
  /// restore). `components` must be m x k (1 <= k <= m) with orthonormal
  /// columns matching the k `singular_values`.
  [[nodiscard]] static PcaModel from_parts(Vector singular_values,
                                           Matrix components,
                                           Vector column_means,
                                           std::uint64_t sample_count);

  /// from_parts of the leading k of the given singular values and component
  /// columns (sorted descending), 1 <= k <= their count.
  [[nodiscard]] static PcaModel from_leading(std::size_t k,
                                             Vector singular_values,
                                             Matrix components,
                                             Vector column_means,
                                             std::uint64_t sample_count);

  /// Fits from an l x m sketch matrix Z-hat (already centered by
  /// construction of eq. 17). `column_means` are the mu_all,j reported by
  /// the monitors and `sample_count` the window length n, needed by eq. (9)/
  /// (23) to scale the spectrum. Keeps the leading min(l, m) components.
  [[nodiscard]] static PcaModel from_sketch(const Matrix& z_hat,
                                            Vector column_means,
                                            std::uint64_t sample_count);

  [[nodiscard]] bool fitted() const noexcept { return dims_ > 0; }
  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }
  [[nodiscard]] std::uint64_t sample_count() const noexcept {
    return sample_count_;
  }

  /// Number k of components kept: m for a model of full data, min(l, m)
  /// for an l x m sketch. Ranks are at most k.
  [[nodiscard]] std::size_t component_count() const noexcept {
    return singular_values_.size();
  }

  /// Singular values in descending order (length k).
  [[nodiscard]] const Vector& singular_values() const noexcept {
    return singular_values_;
  }

  /// Orthonormal principal components as the columns of an m x k matrix.
  [[nodiscard]] const Matrix& components() const noexcept {
    return components_;
  }

  [[nodiscard]] const Vector& column_means() const noexcept { return means_; }

  /// Heap bytes of the spectrum, the m x k components and the means.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (singular_values_.size() + means_.size() +
            components_.rows() * components_.cols()) *
           sizeof(double);
  }

  /// Per-component standard deviation sigma_j = eta_j / sqrt(n-1) (eq. 9).
  [[nodiscard]] double component_std(std::size_t j) const;

  /// Centers a raw measurement vector: y* = x - mu (eq. 19's y_i*).
  [[nodiscard]] Vector center(const Vector& x) const;

  /// Squared-prediction-error distance of a raw measurement vector from the
  /// normal subspace spanned by the first `r` components:
  /// d = |(I - P P^T) y*|  computed as  sqrt(|y*|^2 - sum_{j<=r} (v_j^T y*)^2)
  /// (eqs. 5, 19, 21).
  [[nodiscard]] double anomaly_distance(const Vector& x, std::size_t r) const;

  /// Splits a centered vector into (normal, anomaly) components for
  /// diagnosis (eq. 4).
  struct Split {
    Vector normal;
    Vector anomaly;
  };
  [[nodiscard]] Split split(const Vector& x, std::size_t r) const;

  /// Checkpoint codec of a fitted model, shared by the SPCN and SPCA blobs:
  /// u64 sample_count | f64[] singular_values (k)
  /// | f64[] components (row-major m*k) | f64[] means (m).
  void save_state(ByteWriter& out) const;

  /// Reads what save_state wrote for an m-flow model of k components.
  /// Throws ProtocolError on a bad shape, sample_count < 2, a singular value
  /// that is negative or not finite, or a mean or component that is not
  /// finite.
  [[nodiscard]] static PcaModel restore_state(ByteReader& in, std::size_t m,
                                              std::size_t k);

 private:
  std::size_t dims_ = 0;
  std::uint64_t sample_count_ = 0;
  Vector singular_values_;
  Matrix components_;
  Vector means_;
};

/// Smallest r whose leading components capture at least `fraction` of the
/// total spectral energy (sum of squared singular values); the "90% energy"
/// rule of Sec. VI. Returns at least 1 (if any energy) and at most m.
[[nodiscard]] std::size_t select_rank_by_energy(const Vector& singular_values,
                                                double fraction);

/// Cattell's Scree test (the other heuristic Sec. IV-D names): walks the
/// spectrum of squared singular values looking for the "elbow" — the last
/// index whose drop to the next value still exceeds `knee_fraction` of the
/// largest drop. Components before the elbow form the normal subspace.
/// Returns r in [1, m].
[[nodiscard]] std::size_t select_rank_by_scree(const Vector& singular_values,
                                               double knee_fraction = 0.1);

/// The 3-sigma heuristic of Sec. IV-D (and Lakhina'04): examines the
/// projection of the fitted data onto each component in order; the first
/// component whose projection contains an element more than `k` standard
/// deviations from its mean starts the anomaly subspace. `data` is the
/// matrix the model was fitted on (Y or Z-hat). Returns r in
/// [0, model.component_count()].
[[nodiscard]] std::size_t select_rank_by_ksigma(const Matrix& data,
                                                const PcaModel& model,
                                                double k = 3.0);

}  // namespace spca
