// The two ModelBackend implementations. They live behind the factory so
// call sites depend only on the interface; tests exercise them through
// make_model_backend with the kind they want.
#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "linalg/eigen_sym.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "pca/backend/model_backend.hpp"

namespace spca {

namespace {

/// Warm backend tuning. Subspace-rotation drift (1 - mean |<v_new, v_old>|
/// over the top kDriftAxes axes) beyond which the next refit restarts cold.
/// The warm solve's sweep budget is eigen_symmetric_warm's default.
constexpr double kDriftThreshold = 0.25;
constexpr std::size_t kDriftAxes = 12;

Histogram& refit_seconds_metric() {
  static Histogram& h =
      MetricsRegistry::global().histogram("spca.pca.refit_seconds");
  return h;
}

Counter& backend_sweeps_metric() {
  static Counter& c =
      MetricsRegistry::global().counter("spca.pca.backend_sweeps");
  return c;
}

Counter& drift_restarts_metric() {
  static Counter& c =
      MetricsRegistry::global().counter("spca.pca.drift_restarts");
  return c;
}

/// sqrt(max(lambda, 0)) for every eigenvalue: the eigenvalues of a centered
/// Gram matrix are squared singular values, with tiny negatives from
/// rounding clamped away.
Vector singular_from_eigen(const Vector& eigenvalues) {
  Vector out(eigenvalues.size());
  for (std::size_t j = 0; j < eigenvalues.size(); ++j) {
    out[j] = std::sqrt(std::max(eigenvalues[j], 0.0));
  }
  return out;
}

// ---------------------------------------------------------------------------

/// (a) The accuracy reference: exactly the pre-backend code paths — cold
/// one-sided-Jacobi SVD of the sketch rows, cold two-sided Jacobi of the
/// Gram matrix.
class ExactBackend final : public ModelBackend {
 public:
  ExactBackend() : ModelBackend(ModelBackendKind::kExact) {}

  PcaModel fit_rows(const Matrix& rows, Vector column_means,
                    std::uint64_t sample_count) override {
    const ScopedTimer timer(refit_seconds_metric());
    return PcaModel::from_sketch(rows, std::move(column_means), sample_count);
  }

  PcaModel fit_gram(const Matrix& centered_gram, Vector column_means,
                    std::uint64_t sample_count) override {
    const ScopedTimer timer(refit_seconds_metric());
    EigenSym e = eigen_symmetric(centered_gram);
    backend_sweeps_metric().inc(static_cast<std::uint64_t>(e.sweeps));
    return PcaModel::from_parts(singular_from_eigen(e.values),
                                std::move(e.vectors), std::move(column_means),
                                sample_count);
  }
};

// ---------------------------------------------------------------------------

/// (b) Warm-started Jacobi (the default): seeds each refit with the
/// previous basis, under a sweep budget with cold fallback, and drops the
/// basis entirely — a cold restart — when the subspace rotated more than
/// kDriftThreshold between consecutive refits (routing shifts, window
/// regime changes), since a badly stale basis makes the rotated problem
/// *harder* than a cold start.
///
/// The eigenproblem is solved on the small side of the l x m row matrix Z:
/// the m x m Gram matrix Z^T Z when l >= m, the l x l Z Z^T when l < m. Both
/// carry the same nonzero eigenvalues, the squared singular values of Z;
/// the l x l side yields the left vectors U, lifted to the components by
/// V = Z^T U Sigma^-1. The warm basis is min(l, m) square either way.
class WarmBackend final : public ModelBackend {
 public:
  WarmBackend(std::size_t dimensions, std::size_t rows)
      : ModelBackend(ModelBackendKind::kWarm),
        dims_(dimensions),
        side_(std::min(rows, dimensions)) {}

  PcaModel fit_rows(const Matrix& rows, Vector column_means,
                    std::uint64_t sample_count) override {
    SPCA_EXPECTS(rows.cols() == dims_ && std::min(rows.rows(), dims_) == side_);
    if (side_ == dims_) {
      // ||Z||-scale symmetry makes the Gram eigenvalues exactly the squared
      // singular values of Z.
      return fit_gram(gram(rows), std::move(column_means), sample_count);
    }
    const ScopedTimer timer(refit_seconds_metric());
    const Matrix rows_t = transpose(rows);
    const EigenSym e = solve(gram(rows_t));
    Vector sigma = singular_from_eigen(e.values);
    if (!(sigma[side_ - 1] > kLiftFloor * sigma[0])) {
      // Numerically rank deficient: the lift would divide rounding noise by
      // ~0, so take the components from the m x m side, whose eigenvectors
      // stay orthonormal, and keep its leading min(l, m).
      EigenSym full = eigen_symmetric(gram(rows));
      backend_sweeps_metric().inc(static_cast<std::uint64_t>(full.sweeps));
      return PcaModel::from_leading(side_, singular_from_eigen(full.values),
                                    std::move(full.vectors),
                                    std::move(column_means), sample_count);
    }
    Matrix v = multiply(rows_t, e.vectors);
    for (std::size_t i = 0; i < dims_; ++i) {
      for (std::size_t j = 0; j < side_; ++j) v(i, j) /= sigma[j];
    }
    return PcaModel::from_parts(std::move(sigma), std::move(v),
                                std::move(column_means), sample_count);
  }

  PcaModel fit_gram(const Matrix& centered_gram, Vector column_means,
                    std::uint64_t sample_count) override {
    SPCA_EXPECTS(centered_gram.rows() == dims_ && side_ == dims_);
    const ScopedTimer timer(refit_seconds_metric());
    EigenSym e = solve(centered_gram);
    return PcaModel::from_parts(singular_from_eigen(e.values),
                                std::move(e.vectors), std::move(column_means),
                                sample_count);
  }

  void save_state(ByteWriter& out) const override {
    out.put(static_cast<std::uint8_t>(basis_.empty() ? 0 : 1));
    if (basis_.empty()) return;
    std::vector<double> flat(side_ * side_);
    for (std::size_t i = 0; i < side_; ++i) {
      for (std::size_t j = 0; j < side_; ++j) {
        flat[i * side_ + j] = basis_(i, j);
      }
    }
    out.put_all(flat);
  }

  void restore_state(ByteReader& in) override {
    if (in.get<std::uint8_t>() == 0) {
      basis_ = Matrix();
      return;
    }
    const std::vector<double> flat = in.get_all<double>();
    if (flat.size() != side_ * side_) {
      throw ProtocolError("warm backend: bad basis shape");
    }
    // A non-finite basis would poison the next warm solve, and with it the
    // model every later verdict is read from.
    if (!std::all_of(flat.begin(), flat.end(),
                     [](double v) { return std::isfinite(v); })) {
      throw ProtocolError("warm backend: non-finite basis");
    }
    basis_ = Matrix(side_, side_);
    for (std::size_t i = 0; i < side_; ++i) {
      for (std::size_t j = 0; j < side_; ++j) {
        basis_(i, j) = flat[i * side_ + j];
      }
    }
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return basis_.rows() * basis_.cols() * sizeof(double);
  }

 private:
  /// Smallest sigma_k / sigma_1 the lift divides by. A lifted column's
  /// error grows like (solver tolerance ~1e-13) * (sigma_1 / sigma_k)^2, so
  /// this keeps every column orthonormal to ~1e-5 and the leading ones to
  /// rounding.
  static constexpr double kLiftFloor = 1e-4;

  /// Eigen-solves the side_ x side_ symmetric matrix, warm from the previous
  /// basis, and keeps the result as the next basis unless it drifted.
  [[nodiscard]] EigenSym solve(const Matrix& symmetric) {
    EigenSym e = basis_.empty() ? eigen_symmetric(symmetric)
                                : eigen_symmetric_warm(symmetric, basis_);
    backend_sweeps_metric().inc(static_cast<std::uint64_t>(e.sweeps));
    const double drift = basis_.empty() ? 0.0 : subspace_drift(e.vectors);
    if (drift > kDriftThreshold) {
      // The subspace rotated hard; make the next refit cold instead of
      // warm-starting from a basis that no longer resembles the answer.
      basis_ = Matrix();
      drift_restarts_metric().inc();
    } else {
      basis_ = e.vectors;
    }
    return e;
  }

  /// 1 - mean_j |<v_new_j, v_old_j>| over the top min(kDriftAxes, side)
  /// axes: 0 when the leading eigenvectors line up (up to sign), 1 when
  /// orthogonal.
  [[nodiscard]] double subspace_drift(const Matrix& fresh) const {
    const std::size_t k = std::min(kDriftAxes, side_);
    double aligned = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      double dot = 0.0;
      for (std::size_t i = 0; i < side_; ++i) {
        dot += fresh(i, j) * basis_(i, j);
      }
      aligned += std::abs(dot);
    }
    return 1.0 - aligned / static_cast<double>(k);
  }

  std::size_t dims_;
  std::size_t side_;  // min(l, m): the side of the solved matrix and basis
  Matrix basis_;      // previous eigenvectors; empty => next refit is cold
};

}  // namespace

std::unique_ptr<ModelBackend> make_model_backend(ModelBackendKind kind,
                                                 std::size_t dimensions,
                                                 std::size_t rows) {
  SPCA_EXPECTS(dimensions >= 1 && rows >= 1);
  switch (kind) {
    case ModelBackendKind::kExact:
      return std::make_unique<ExactBackend>();
    case ModelBackendKind::kWarm:
      return std::make_unique<WarmBackend>(dimensions, rows);
  }
  throw InputError("make_model_backend: unknown backend kind");
}

}  // namespace spca
