#include "sketch/flow_sketch.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "sketch/random_projection.hpp"

namespace spca {
namespace {

TEST(FlowSketch, EmptySketchIsZero) {
  const ProjectionSource proj(ProjectionKind::kGaussian, 1);
  const ProjectionWindow window(proj, 4, 32, 0.1);
  const FlowSketch sketch(window);
  const Vector z = sketch.sketch(window);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(z[k], 0.0);
  EXPECT_EQ(sketch.count(), 0u);
}

TEST(FlowSketch, ExactOnShortUnmergedStreams) {
  // While every bucket is a singleton the sketch equals the exact centered
  // projection of the observed values.
  const std::size_t l = 6;
  const ProjectionSource proj(ProjectionKind::kGaussian, 21);
  ProjectionWindow window(proj, l, 128, 0.3);
  FlowSketch sketch(window);
  std::vector<double> xs = {5.0, 9.0, 2.0, 7.5, 4.0};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    window.advance(static_cast<std::int64_t>(i));
    sketch.add(static_cast<std::int64_t>(i), xs[i], window);
  }
  const double mean = (5.0 + 9.0 + 2.0 + 7.5 + 4.0) / 5.0;
  const Vector z = sketch.sketch(window);
  for (std::size_t k = 0; k < l; ++k) {
    double expected = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      expected += (xs[i] - mean) *
                  proj.value(static_cast<std::int64_t>(i), k);
    }
    expected /= std::sqrt(static_cast<double>(l));
    EXPECT_NEAR(z[k], expected, 1e-10);
  }
}

TEST(FlowSketch, MeanAndCountTrackWindow) {
  const ProjectionSource proj(ProjectionKind::kTugOfWar, 4);
  ProjectionWindow window(proj, 2, 16, 0.2);
  FlowSketch sketch(window);
  for (std::int64_t t = 0; t < 10; ++t) {
    window.advance(t);
    sketch.add(t, 4.0, window);
  }
  EXPECT_EQ(sketch.count(), 10u);
  EXPECT_NEAR(sketch.mean(), 4.0, 1e-12);
}

TEST(FlowSketch, TwoInstancesWithSameSourceAgree) {
  // The distributed-parity property at the single-flow level.
  const ProjectionSource proj(ProjectionKind::kSparse, 77, 3.0);
  ProjectionWindow window_a(proj, 8, 64, 0.05);
  ProjectionWindow window_b(proj, 8, 64, 0.05);
  FlowSketch a(window_a);
  FlowSketch b(window_b);
  Xoshiro256 gen(3);
  for (std::int64_t t = 0; t < 200; ++t) {
    const double x = 50.0 + 10.0 * standard_normal(gen);
    window_a.advance(t);
    window_b.advance(t);
    a.add(t, x, window_a);
    b.add(t, x, window_b);
  }
  const Vector za = a.sketch(window_a);
  const Vector zb = b.sketch(window_b);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(za[k], zb[k]);
  }
}

// Lemma 4: the sketch's squared norm approximates the centered window
// column's squared norm within a (1 +- 2eps)-ish factor for l large enough.
class FlowSketchNormTest : public ::testing::TestWithParam<ProjectionKind> {};

TEST_P(FlowSketchNormTest, SketchNormApproximatesCenteredColumnNorm) {
  const std::size_t n = 256;
  const std::size_t l = 512;  // generous l to make concentration tight
  const ProjectionSource proj =
      GetParam() == ProjectionKind::kVerySparse
          ? ProjectionSource::very_sparse(11, n)
          : ProjectionSource(GetParam(), 11, 3.0);
  ProjectionWindow window(proj, l, n, 0.01);
  FlowSketch sketch(window);

  Xoshiro256 gen(42);
  std::vector<double> values;
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(n); ++t) {
    const double x = 100.0 + 15.0 * standard_normal(gen);
    window.advance(t);
    sketch.add(t, x, window);
    values.push_back(x);
  }
  double mean = 0.0;
  for (const double x : values) mean += x;
  mean /= static_cast<double>(n);
  double y_norm2 = 0.0;
  for (const double x : values) y_norm2 += (x - mean) * (x - mean);

  const double z_norm2 = norm_squared(sketch.sketch(window));
  EXPECT_NEAR(z_norm2 / y_norm2, 1.0, 0.25) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, FlowSketchNormTest,
    ::testing::Values(ProjectionKind::kGaussian, ProjectionKind::kTugOfWar,
                      ProjectionKind::kSparse, ProjectionKind::kVerySparse));

TEST(FlowSketch, SlidingExpiryDropsOldContributions) {
  const std::size_t n = 32;
  const ProjectionSource proj(ProjectionKind::kGaussian, 5);
  ProjectionWindow window(proj, 4, n, 0.1);
  FlowSketch sketch(window);
  // Large burst far in the past, then a long quiet run.
  window.advance(0);
  sketch.add(0, 1e9, window);
  for (std::int64_t t = 1; t < 200; ++t) {
    window.advance(t);
    sketch.add(t, 10.0, window);
  }
  // The burst left the window long ago: mean must reflect only quiet data.
  EXPECT_NEAR(sketch.mean(), 10.0, 1e-9);
  EXPECT_LE(sketch.count(), n);
}

TEST(FlowSketch, BucketGrowthLogarithmic) {
  const std::size_t n = 4096;
  const ProjectionSource proj(ProjectionKind::kTugOfWar, 6);
  ProjectionWindow window(proj, 2, n, 0.05);
  FlowSketch sketch(window);
  Xoshiro256 gen(8);
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(2 * n); ++t) {
    window.advance(t);
    sketch.add(t, 100.0 + standard_normal(gen), window);
  }
  EXPECT_LT(sketch.bucket_count(),
            static_cast<std::size_t>(
                (1.0 / 0.05) * std::log2(static_cast<double>(n)) * 8.0));
}

TEST(FlowSketch, RejectsZeroRows) {
  const ProjectionSource proj(ProjectionKind::kGaussian, 1);
  EXPECT_THROW(ProjectionWindow(proj, 0, 32, 0.1), ContractViolation);
}

}  // namespace
}  // namespace spca
