#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace spca {

namespace {

/// Sum of squares of off-diagonal entries — the Jacobi convergence measure.
double off_diagonal_norm_squared(const Matrix& a) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      sum += 2.0 * a(i, j) * a(i, j);
    }
  }
  return sum;
}

}  // namespace

EigenSym eigen_symmetric(const Matrix& input, int max_sweeps) {
  SPCA_EXPECTS(input.rows() == input.cols());
  SPCA_EXPECTS(max_sweeps > 0);
  const std::size_t n = input.rows();

  Matrix a = input;
  Matrix v = Matrix::identity(n);
  if (n == 0) return {Vector{}, v};

  const double frob2 = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) s += a(i, j) * a(i, j);
    return s;
  }();
  // Relative tolerance on the off-diagonal mass; 0 matrices converge at
  // once. 1e-26 leaves the off-diagonal norm at ~1e-13 of the Frobenius
  // norm — eigenvalues accurate to ~1e-13 relative, orders beyond what the
  // detection thresholds resolve — while sparing the near-converged endgame
  // sweeps that dominate a warm-started solve (Jacobi converges
  // quadratically, so each extra decade of tolerance costs a full sweep).
  const double tol2 = frob2 * 1e-26;

  // Per-element rotation threshold: an entry whose square is below
  // tol2 / n^2 contributes at most tol2 * (n-1)/n in total even if every
  // off-diagonal entry sits right at the threshold, so skipping those
  // rotations cannot stall convergence — and it turns the near-diagonal
  // sweeps of a warm-started solve into O(n^2) scans instead of O(n^3)
  // rotation work.
  const double skip2 = tol2 / (static_cast<double>(n) * static_cast<double>(n));

  int sweep = 0;
  while (off_diagonal_norm_squared(a) > tol2) {
    if (++sweep > max_sweeps) {
      throw NumericalError("eigen_symmetric: Jacobi failed to converge");
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq * apq <= skip2) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Stable computation of the rotation angle (Golub & Van Loan 8.4).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        // A <- J^T A J applied to rows/columns p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        // Accumulate the rotation into the eigenvector matrix.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i) > a(j, j);
  });

  EigenSym out;
  out.values = Vector(n);
  out.vectors = Matrix(n, n);
  out.sweeps = sweep;
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a(order[k], order[k]);
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, k) = v(i, order[k]);
    }
  }
  return out;
}

EigenSym eigen_symmetric_warm(const Matrix& a, const Matrix& warm_basis,
                              int max_sweeps, int warm_sweeps) {
  SPCA_EXPECTS(a.rows() == a.cols());
  SPCA_EXPECTS(warm_basis.rows() == a.rows() &&
               warm_basis.cols() == a.cols());
  SPCA_EXPECTS(warm_sweeps > 0);
  // Rotate into the warm basis: B = V^T A V is near-diagonal when V is
  // close to A's eigenbasis, so the inner Jacobi finishes almost at once.
  const Matrix b =
      multiply(transpose(warm_basis), multiply(a, warm_basis));
  try {
    EigenSym inner = eigen_symmetric(b, std::min(max_sweeps, warm_sweeps));
    EigenSym out;
    out.values = std::move(inner.values);
    out.vectors = multiply(warm_basis, inner.vectors);
    out.sweeps = inner.sweeps;
    return out;
  } catch (const NumericalError&) {
    // Degenerate or heavily rotated spectra can leave B far from diagonal;
    // the cold path on the original matrix is then both cheaper and more
    // accurate than grinding out the rotated problem.
    EigenSym out = eigen_symmetric(a, max_sweeps);
    out.sweeps += std::min(max_sweeps, warm_sweeps);
    out.warm_fallback = true;
    return out;
  }
}

}  // namespace spca
