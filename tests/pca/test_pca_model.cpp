#include "pca/pca_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "linalg/stats.hpp"
#include "pca/backend/model_backend.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace spca {
namespace {

/// Data concentrated near a rank-2 subspace of R^5 plus small noise.
Matrix low_rank_data(std::size_t n, double noise, std::uint64_t seed) {
  Xoshiro256 gen(seed);
  const Vector dir1{1.0, 1.0, 0.0, 0.0, 1.0};
  const Vector dir2{0.0, 1.0, -1.0, 1.0, 0.0};
  Matrix x(n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 10.0 * standard_normal(gen);
    const double b = 4.0 * standard_normal(gen);
    for (std::size_t j = 0; j < 5; ++j) {
      x(i, j) = 100.0 + a * dir1[j] + b * dir2[j] +
                noise * standard_normal(gen);
    }
  }
  return x;
}

TEST(PcaModel, UnfittedStateReported) {
  const PcaModel model;
  EXPECT_FALSE(model.fitted());
}

TEST(PcaModel, FromDataCapturesDominantSubspace) {
  const Matrix x = low_rank_data(400, 0.1, 1);
  const PcaModel model = PcaModel::from_data(x);
  ASSERT_TRUE(model.fitted());
  EXPECT_EQ(model.dimensions(), 5u);
  // Two dominant singular values, three tiny ones.
  EXPECT_GT(model.singular_values()[1], 10.0 * model.singular_values()[2]);
}

TEST(PcaModel, ComponentsOrthonormal) {
  const PcaModel model = PcaModel::from_data(low_rank_data(200, 1.0, 2));
  const Matrix vtv =
      multiply(transpose(model.components()), model.components());
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(5)), 1e-12);
}

TEST(PcaModel, CenterSubtractsColumnMeans) {
  const Matrix x{{2.0, 10.0}, {4.0, 30.0}};
  const PcaModel model = PcaModel::from_data(x);
  const Vector y = model.center(Vector{3.0, 20.0});
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 0.0, 1e-12);
}

TEST(PcaModel, AnomalyDistanceZeroForFullRank) {
  const PcaModel model = PcaModel::from_data(low_rank_data(100, 1.0, 3));
  Xoshiro256 gen(4);
  Vector x(5);
  for (std::size_t j = 0; j < 5; ++j) x[j] = 100.0 + standard_normal(gen);
  // Projecting onto all m components leaves no residual (up to rounding in
  // the O(100)-magnitude cancellation).
  EXPECT_NEAR(model.anomaly_distance(x, 5), 0.0, 1e-5);
}

TEST(PcaModel, AnomalyDistanceEqualsResidualNorm) {
  const Matrix x = low_rank_data(300, 0.5, 5);
  const PcaModel model = PcaModel::from_data(x);
  Xoshiro256 gen(6);
  Vector probe(5);
  for (std::size_t j = 0; j < 5; ++j) {
    probe[j] = 100.0 + 3.0 * standard_normal(gen);
  }
  const std::size_t r = 2;
  // Explicit (I - P P^T) y computation.
  const Vector y = model.center(probe);
  Vector residual = y;
  for (std::size_t j = 0; j < r; ++j) {
    double proj = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
      proj += model.components()(i, j) * y[i];
    }
    for (std::size_t i = 0; i < 5; ++i) {
      residual[i] -= proj * model.components()(i, j);
    }
  }
  EXPECT_NEAR(model.anomaly_distance(probe, r), norm(residual), 1e-9);
}

TEST(PcaModel, InPlaneVectorHasSmallDistance) {
  const Matrix x = low_rank_data(300, 0.01, 7);
  const PcaModel model = PcaModel::from_data(x);
  // A fresh sample from the same subspace.
  Vector probe(5);
  const Vector dir1{1.0, 1.0, 0.0, 0.0, 1.0};
  for (std::size_t j = 0; j < 5; ++j) probe[j] = 100.0 + 7.0 * dir1[j];
  EXPECT_LT(model.anomaly_distance(probe, 2), 0.5);
  // An off-subspace vector sticks out.
  Vector outlier = probe;
  outlier[2] += 25.0;
  outlier[3] -= 25.0;
  EXPECT_GT(model.anomaly_distance(outlier, 2), 10.0);
}

TEST(PcaModel, SplitReconstructsCenteredVector) {
  const PcaModel model = PcaModel::from_data(low_rank_data(100, 1.0, 8));
  Xoshiro256 gen(9);
  Vector probe(5);
  for (std::size_t j = 0; j < 5; ++j) {
    probe[j] = 100.0 + 2.0 * standard_normal(gen);
  }
  const auto split = model.split(probe, 2);
  Vector sum = split.normal;
  sum += split.anomaly;
  const Vector y = model.center(probe);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(sum[j], y[j], 1e-10);
  }
  EXPECT_NEAR(norm(split.anomaly), model.anomaly_distance(probe, 2), 1e-10);
}

TEST(PcaModel, FromCovarianceMatchesFromData) {
  // The Gram path (the exact backend's fit_gram, as the Lakhina detector
  // drives it) against the data path (SVD of the centered window).
  const Matrix x = low_rank_data(250, 0.8, 10);
  const PcaModel direct = PcaModel::from_data(x);
  const PcaModel via_cov =
      make_model_backend(ModelBackendKind::kExact, x.cols(), x.cols())
          ->fit_gram(centered_gram(x), column_means(x), x.rows());
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(direct.singular_values()[j], via_cov.singular_values()[j],
                1e-6 * (1.0 + direct.singular_values()[0]));
  }
  // Distances agree for any probe (components may differ by sign).
  Xoshiro256 gen(11);
  for (int trial = 0; trial < 10; ++trial) {
    Vector probe(5);
    for (std::size_t j = 0; j < 5; ++j) {
      probe[j] = 100.0 + 5.0 * standard_normal(gen);
    }
    EXPECT_NEAR(direct.anomaly_distance(probe, 2),
                via_cov.anomaly_distance(probe, 2), 1e-6);
  }
}

TEST(PcaModel, ComponentStdUsesSampleCount) {
  const Matrix x = low_rank_data(101, 0.5, 12);
  const PcaModel model = PcaModel::from_data(x);
  EXPECT_NEAR(model.component_std(0),
              model.singular_values()[0] / std::sqrt(100.0), 1e-12);
}

TEST(PcaModel, FromSketchScalesSpectrumWithGivenN) {
  Matrix z(4, 3);
  z(0, 0) = 2.0;
  z(1, 1) = 1.0;
  const PcaModel model = PcaModel::from_sketch(z, Vector(3), 50);
  EXPECT_EQ(model.sample_count(), 50u);
  EXPECT_NEAR(model.component_std(0), 2.0 / std::sqrt(49.0), 1e-12);
}

TEST(PcaModel, WideSketchKeepsOneComponentPerRow) {
  // An l x m sketch with l < m has rank at most l: the model keeps l
  // components, ranks stop at l, and the checkpoint holds m x l of them.
  Matrix z(3, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      z(i, j) = std::sin(static_cast<double>(7 * i + 3 * j + 1));
    }
  }
  const PcaModel model = PcaModel::from_sketch(z, Vector(5), 50);
  ASSERT_EQ(model.component_count(), 3u);
  EXPECT_EQ(model.components().rows(), 5u);
  EXPECT_EQ(model.components().cols(), 3u);
  const Vector x{1.0, -2.0, 0.5, 3.0, 0.0};
  EXPECT_GE(model.anomaly_distance(x, 3), 0.0);
  EXPECT_THROW((void)model.anomaly_distance(x, 4), ContractViolation);

  ByteWriter writer;
  model.save_state(writer);
  const std::vector<std::byte> blob = std::move(writer).take();
  ByteReader reader(blob);
  const PcaModel restored = PcaModel::restore_state(reader, 5, 3);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(max_abs_diff(restored.components(), model.components()), 0.0);
  EXPECT_EQ(restored.anomaly_distance(x, 2), model.anomaly_distance(x, 2));
  // A decoder expecting another component count refuses the blob.
  for (const std::size_t k : {2, 4, 5}) {
    ByteReader other(blob);
    EXPECT_THROW((void)PcaModel::restore_state(other, 5, k), ProtocolError)
        << "k " << k;
  }
}

TEST(SelectRankByEnergy, PicksSmallestSufficientRank) {
  const Vector sv{10.0, 3.0, 1.0, 0.1};
  // energies: 100, 9, 1, 0.01 -> total 110.01
  EXPECT_EQ(select_rank_by_energy(sv, 0.90), 1u);
  EXPECT_EQ(select_rank_by_energy(sv, 0.95), 2u);
  EXPECT_EQ(select_rank_by_energy(sv, 0.999999), 4u);
}

TEST(SelectRankByEnergy, ZeroSpectrumGivesZero) {
  EXPECT_EQ(select_rank_by_energy(Vector(3), 0.9), 0u);
}

TEST(SelectRankByScree, FindsElbowInTwoTierSpectrum) {
  // Two dominant components, then a flat noise floor: elbow at r = 2.
  const Vector sv{10.0, 8.0, 0.5, 0.45, 0.4};
  EXPECT_EQ(select_rank_by_scree(sv, 0.1), 2u);
}

TEST(SelectRankByScree, SingleDominantComponent) {
  const Vector sv{20.0, 1.0, 0.9, 0.8};
  EXPECT_EQ(select_rank_by_scree(sv, 0.1), 1u);
}

TEST(SelectRankByScree, FlatSpectrumReturnsOne) {
  const Vector sv{2.0, 2.0, 2.0, 2.0};
  EXPECT_EQ(select_rank_by_scree(sv, 0.1), 1u);
}

TEST(SelectRankByScree, GradualSpectrumIncludesAllSignificantDrops) {
  // Strictly geometric decay: every drop is comparable in scale, and the
  // last drop above the knee fraction defines the elbow.
  const Vector sv{8.0, 4.0, 2.0, 1.0, 0.5};
  // Eigenvalue drops: 48, 12, 3, 0.75; largest 48; knee 0.1 -> >= 4.8
  // keeps drops 1 and 2 -> elbow after index 1 (r = 2).
  EXPECT_EQ(select_rank_by_scree(sv, 0.1), 2u);
  // A looser knee keeps more components.
  EXPECT_EQ(select_rank_by_scree(sv, 0.05), 3u);
}

TEST(SelectRankByScree, LowRankDataRecovered) {
  const Matrix x = low_rank_data(300, 0.05, 21);
  const PcaModel model = PcaModel::from_data(x);
  EXPECT_EQ(select_rank_by_scree(model.singular_values(), 0.1), 2u);
}

TEST(SelectRankByScree, Validation) {
  EXPECT_THROW((void)select_rank_by_scree(Vector{1.0, 0.5}, 0.0),
               ContractViolation);
  EXPECT_EQ(select_rank_by_scree(Vector{3.0}, 0.1), 1u);
  EXPECT_EQ(select_rank_by_scree(Vector{}, 0.1), 0u);
}

TEST(SelectRankByKSigma, CleanGaussianDataKeepsAllComponents) {
  // Without outliers no projection exceeds k sigma for large-ish k.
  const Matrix x = low_rank_data(100, 1.0, 13);
  const PcaModel model = PcaModel::from_data(x);
  const Matrix y = center_columns(x);
  EXPECT_EQ(select_rank_by_ksigma(y, model, 8.0), 5u);
}

TEST(SelectRankByKSigma, OutlierTruncatesSubspace) {
  Matrix x = low_rank_data(200, 0.5, 14);
  // Implant a massive outlier along the first principal direction.
  for (std::size_t j = 0; j < 5; ++j) x(0, j) += 500.0;
  const PcaModel model = PcaModel::from_data(x);
  const Matrix y = center_columns(x);
  EXPECT_LT(select_rank_by_ksigma(y, model, 3.0), 3u);
}

TEST(PcaModel, PreconditionsEnforced) {
  EXPECT_THROW((void)PcaModel::from_data(Matrix(1, 3)), ContractViolation);
  const PcaModel model = PcaModel::from_data(low_rank_data(50, 1.0, 15));
  EXPECT_THROW((void)model.anomaly_distance(Vector(3), 1), ContractViolation);
  EXPECT_THROW((void)model.anomaly_distance(Vector(5), 6), ContractViolation);
}

}  // namespace
}  // namespace spca
