#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace spca {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Xoshiro256 gen(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = standard_normal(gen);
    }
  }
  return a;
}

void expect_orthonormal(const Matrix& v, double tol) {
  const Matrix vtv = multiply(transpose(v), v);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(v.cols())), tol);
}

TEST(EigenSym, DiagonalMatrixReturnsSortedDiagonal) {
  const Matrix a = Matrix::diagonal(Vector{2.0, 9.0, -1.0});
  const EigenSym e = eigen_symmetric(a);
  EXPECT_DOUBLE_EQ(e.values[0], 9.0);
  EXPECT_DOUBLE_EQ(e.values[1], 2.0);
  EXPECT_DOUBLE_EQ(e.values[2], -1.0);
}

TEST(EigenSym, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const EigenSym e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), std::sqrt(0.5), 1e-12);
}

class EigenSymRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymRandomTest, ReconstructsInput) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 42 + n);
  const EigenSym e = eigen_symmetric(a);
  // A = V diag(lambda) V^T
  const Matrix reconstructed =
      multiply(multiply(e.vectors, Matrix::diagonal(e.values)),
               transpose(e.vectors));
  EXPECT_LT(max_abs_diff(a, reconstructed), 1e-10 * std::max(1.0, max_abs(a)));
}

TEST_P(EigenSymRandomTest, VectorsAreOrthonormal) {
  const std::size_t n = GetParam();
  const EigenSym e = eigen_symmetric(random_symmetric(n, 100 + n));
  expect_orthonormal(e.vectors, 1e-12);
}

TEST_P(EigenSymRandomTest, ValuesAreDescending) {
  const std::size_t n = GetParam();
  const EigenSym e = eigen_symmetric(random_symmetric(n, 200 + n));
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST_P(EigenSymRandomTest, TraceEqualsEigenvalueSum) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 300 + n);
  const EigenSym e = eigen_symmetric(a);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += e.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-10 * std::max(1.0, std::abs(trace)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(EigenSym, PsdGramHasNonNegativeEigenvalues) {
  Xoshiro256 gen(7);
  Matrix b(12, 6);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 6; ++j) b(i, j) = standard_normal(gen);
  }
  const EigenSym e = eigen_symmetric(gram(b));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(e.values[i], -1e-10);
  }
}

TEST(EigenSym, ZeroMatrixHandled) {
  const EigenSym e = eigen_symmetric(Matrix(4, 4));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(e.values[i], 0.0);
  expect_orthonormal(e.vectors, 1e-15);
}

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_THROW((void)eigen_symmetric(Matrix(2, 3)), ContractViolation);
}

TEST(EigenSymWarm, MatchesColdSolverOnPerturbedMatrix) {
  // The streaming use case: decompose A, perturb slightly, warm-start from
  // A's basis — results must match the cold solver.
  const Matrix a = gram(random_symmetric(12, 55));  // PSD for clean ordering
  const EigenSym cold_a = eigen_symmetric(a);

  Matrix perturbed = a;
  Xoshiro256 gen(56);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i; j < 12; ++j) {
      const double d = 1e-3 * standard_normal(gen);
      perturbed(i, j) += d;
      perturbed(j, i) = perturbed(i, j);
    }
  }
  const EigenSym cold = eigen_symmetric(perturbed);
  const EigenSym warm = eigen_symmetric_warm(perturbed, cold_a.vectors);
  for (std::size_t k = 0; k < 12; ++k) {
    EXPECT_NEAR(warm.values[k], cold.values[k],
                1e-9 * std::max(1.0, cold.values[0]));
  }
  // Same reconstruction (vectors can differ by sign/rotation in clusters).
  const Matrix reconstructed =
      multiply(multiply(warm.vectors, Matrix::diagonal(warm.values)),
               transpose(warm.vectors));
  EXPECT_LT(max_abs_diff(perturbed, reconstructed), 1e-9);
}

TEST(EigenSymWarm, VectorsStayOrthonormal) {
  const Matrix a = random_symmetric(9, 57);
  const EigenSym cold = eigen_symmetric(a);
  const EigenSym warm = eigen_symmetric_warm(a, cold.vectors);
  expect_orthonormal(warm.vectors, 1e-11);
}

TEST(EigenSymWarm, DuplicateEigenvaluesMatchColdSolver) {
  // Clustered spectra are the warm path's worst case: the eigenbasis inside
  // a duplicate cluster is arbitrary, so the rotated problem B = V^T A V
  // can stay far from diagonal. The answer must still match cold.
  const Matrix q = eigen_symmetric(random_symmetric(6, 71)).vectors;
  const Matrix a = multiply(
      multiply(q, Matrix::diagonal(Vector{5.0, 5.0, 5.0, 2.0, 2.0, 1.0})),
      transpose(q));
  Matrix perturbed = a;
  Xoshiro256 gen(72);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i; j < 6; ++j) {
      perturbed(i, j) += 1e-4 * standard_normal(gen);
      perturbed(j, i) = perturbed(i, j);
    }
  }
  const Matrix warm_basis = eigen_symmetric(perturbed).vectors;
  const EigenSym cold = eigen_symmetric(a);
  const EigenSym warm = eigen_symmetric_warm(a, warm_basis);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(warm.values[k], cold.values[k], 1e-10);
  }
  expect_orthonormal(warm.vectors, 1e-11);
  const Matrix reconstructed =
      multiply(multiply(warm.vectors, Matrix::diagonal(warm.values)),
               transpose(warm.vectors));
  EXPECT_LT(max_abs_diff(a, reconstructed), 1e-10);
}

TEST(EigenSymWarm, RankDeficientGramMatchesColdSolver) {
  // Rank-3 Gram matrix: half the spectrum is exactly zero, another
  // degenerate cluster the warm solve must survive.
  Xoshiro256 gen(73);
  Matrix b(8, 6);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      b(i, j) = standard_normal(gen);
      b(i, j + 3) = b(i, j);  // duplicated columns: rank 3
    }
  }
  const Matrix a = gram(b);
  Matrix nudged = a;
  for (std::size_t i = 0; i < 6; ++i) nudged(i, i) += 1e-5;
  const Matrix warm_basis = eigen_symmetric(nudged).vectors;
  const EigenSym cold = eigen_symmetric(a);
  const EigenSym warm = eigen_symmetric_warm(a, warm_basis);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(warm.values[k], cold.values[k],
                1e-9 * std::max(1.0, cold.values[0]));
  }
  for (std::size_t k = 3; k < 6; ++k) {
    EXPECT_NEAR(warm.values[k], 0.0, 1e-9 * cold.values[0]);
  }
  expect_orthonormal(warm.vectors, 1e-11);
}

TEST(EigenSymWarm, ExhaustedWarmBudgetFallsBackToCold) {
  // A warm basis unrelated to the input leaves the rotated problem dense;
  // with a single-sweep budget the inner solve must give up, report the
  // fallback, and reproduce the cold answer.
  const Matrix a = gram(random_symmetric(10, 74));
  const Matrix unrelated = eigen_symmetric(random_symmetric(10, 75)).vectors;
  const EigenSym warm = eigen_symmetric_warm(a, unrelated, 64, 1);
  EXPECT_TRUE(warm.warm_fallback);
  const EigenSym cold = eigen_symmetric(a);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(warm.values[k], cold.values[k]) << "value " << k;
  }
  EXPECT_EQ(max_abs_diff(warm.vectors, cold.vectors), 0.0);
}

TEST(EigenSymWarm, GoodBasisDoesNotFallBack) {
  const Matrix a = gram(random_symmetric(10, 76));
  const Matrix basis = eigen_symmetric(a).vectors;
  const EigenSym warm = eigen_symmetric_warm(a, basis);
  EXPECT_FALSE(warm.warm_fallback);
  EXPECT_LE(warm.sweeps, 2);
}

TEST(EigenSymWarm, RejectsWrongShapeBasis) {
  const Matrix a = random_symmetric(5, 58);
  EXPECT_THROW((void)eigen_symmetric_warm(a, Matrix(4, 4)),
               ContractViolation);
}

TEST(EigenSym, SmallRelativeEigenvaluesAccurate) {
  // Jacobi's selling point: small eigenvalues to high relative accuracy.
  const Matrix a = Matrix::diagonal(Vector{1.0, 1e-8, 1e-12});
  const EigenSym e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[1] / 1e-8, 1.0, 1e-10);
  EXPECT_NEAR(e.values[2] / 1e-12, 1.0, 1e-10);
}

}  // namespace
}  // namespace spca
