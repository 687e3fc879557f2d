#include "sketch/random_projection.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/stats.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "sketch/flow_sketch.hpp"

namespace spca {
namespace {

Matrix random_data(std::size_t n, std::size_t m, std::uint64_t seed) {
  Xoshiro256 gen(seed);
  Matrix y(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      y(i, j) = standard_normal(gen);
    }
  }
  return y;
}

TEST(ProjectionMatrix, MaterializesCoefficients) {
  const ProjectionSource proj(ProjectionKind::kGaussian, 3);
  const Matrix r = projection_matrix(proj, 10, 5, 4);
  EXPECT_EQ(r.rows(), 5u);
  EXPECT_EQ(r.cols(), 4u);
  EXPECT_EQ(r(2, 3), proj.value(12, 3));
}

TEST(ProjectColumns, MatchesExplicitMatrixProduct) {
  const ProjectionSource proj(ProjectionKind::kTugOfWar, 8);
  const Matrix y = random_data(20, 6, 1);
  const Matrix z = project_columns(y, proj, 100, 7);
  const Matrix r = projection_matrix(proj, 100, 20, 7);
  // z = R^T y / sqrt(l)
  Matrix expected = multiply(transpose(r), y);
  expected *= 1.0 / std::sqrt(7.0);
  EXPECT_LT(max_abs_diff(z, expected), 1e-12);
}

// Lemma 2 / Lemma 3: E(|z|^2) = |y|^2 with exponential concentration, for
// both the Gaussian and the sparse schemes.
class ProjectionNormTest : public ::testing::TestWithParam<ProjectionKind> {};

TEST_P(ProjectionNormTest, NormPreservedWithinTolerance) {
  const std::size_t n = 300;
  const std::size_t l = 400;
  const ProjectionSource proj =
      GetParam() == ProjectionKind::kVerySparse
          ? ProjectionSource::very_sparse(19, n)
          : ProjectionSource(GetParam(), 19, 3.0);
  const Matrix y = random_data(n, 5, 77);
  const Matrix z = project_columns(y, proj, 0, l);
  for (std::size_t j = 0; j < 5; ++j) {
    const double yj2 = norm_squared(y.col(j));
    const double zj2 = norm_squared(z.col(j));
    EXPECT_NEAR(zj2 / yj2, 1.0, 0.35) << to_string(GetParam()) << " col " << j;
  }
}

TEST_P(ProjectionNormTest, AverageOverSeedsConvergesToNorm) {
  // Stronger check of E(|z|^2) = |y|^2: average over independent seeds.
  const std::size_t n = 100;
  const std::size_t l = 20;
  const Matrix y = random_data(n, 1, 5);
  const double y2 = norm_squared(y.col(0));
  double sum = 0.0;
  constexpr int kSeeds = 60;
  for (int s = 0; s < kSeeds; ++s) {
    const ProjectionSource proj =
        GetParam() == ProjectionKind::kVerySparse
            ? ProjectionSource::very_sparse(1000 + s, n)
            : ProjectionSource(GetParam(), 1000 + s, 3.0);
    sum += norm_squared(project_columns(y, proj, 0, l).col(0));
  }
  EXPECT_NEAR(sum / kSeeds / y2, 1.0, 0.15) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ProjectionNormTest,
    ::testing::Values(ProjectionKind::kGaussian, ProjectionKind::kTugOfWar,
                      ProjectionKind::kSparse, ProjectionKind::kVerySparse));

TEST(ProjectColumns, GramApproximatesDataGram) {
  // The covariance-approximation property behind Lemma 6: Z^T Z ~ Y^T Y.
  const std::size_t n = 500;
  const std::size_t l = 800;
  const ProjectionSource proj(ProjectionKind::kGaussian, 29);
  const Matrix y = random_data(n, 4, 33);
  const Matrix z = project_columns(y, proj, 0, l);
  const Matrix gy = gram(y);
  const Matrix gz = gram(z);
  EXPECT_LT(frobenius_norm(gz - gy) / frobenius_norm(gy), 0.25);
}

TEST(StreamingSketchMatchesExactProjection, CenteredColumns) {
  // End-to-end Lemma 4 check: the FlowSketch (streaming, merged buckets)
  // is close to the exact projection of the centered window column.
  const std::size_t n = 256;
  const std::size_t l = 64;
  const double epsilon = 0.05;
  const ProjectionSource proj(ProjectionKind::kGaussian, 101);
  ProjectionWindow window(proj, l, n, epsilon);
  FlowSketch sketch(window);

  Xoshiro256 gen(55);
  std::vector<double> xs;
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(n); ++t) {
    const double x = 200.0 + 30.0 * standard_normal(gen);
    window.advance(t);
    sketch.add(t, x, window);
    xs.push_back(x);
  }
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = xs[i];
  const Matrix centered = center_columns(y);
  const Matrix z_exact = project_columns(centered, proj, 0, l);

  const Vector z_stream = sketch.sketch(window);
  const double exact_norm = norm(z_exact.col(0));
  double diff2 = 0.0;
  for (std::size_t k = 0; k < l; ++k) {
    const double d = z_stream[k] - z_exact(k, 0);
    diff2 += d * d;
  }
  // The VH-induced perturbation is bounded by ~eps * |y|^2; relative to the
  // sketch norm it must be small.
  EXPECT_LT(std::sqrt(diff2) / exact_norm, 0.30);
}

}  // namespace
}  // namespace spca
