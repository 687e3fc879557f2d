#include "pca/backend/model_backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "linalg/eigen_sym.hpp"
#include "obs/metrics.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace spca {
namespace {

/// A centered Gram matrix with a decaying spectrum, slightly rotated per
/// step — the sliding-window refit sequence the backends see in production.
Matrix drifting_gram(std::size_t m, std::uint64_t seed, double noise) {
  Xoshiro256 gen(seed);
  Matrix b(4 * m, m);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      b(i, j) = standard_normal(gen) *
                std::pow(0.7, static_cast<double>(j)) *
                (1.0 + noise * standard_normal(gen));
    }
  }
  return gram(b);
}

Vector zero_means(std::size_t m) { return Vector(m); }

/// An l x m sketch-like row matrix: a fixed random basis with a decaying
/// spectrum, perturbed by `noise` per draw — consecutive refits of a wide
/// (l < m) sketch. `rank` < l makes it rank deficient.
Matrix drifting_rows(std::size_t l, std::size_t m, std::uint64_t seed,
                     double noise, std::size_t rank) {
  Xoshiro256 basis_gen(77);
  Matrix left(l, rank);
  Matrix right(rank, m);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t j = 0; j < rank; ++j) {
      left(i, j) = standard_normal(basis_gen) *
                   std::pow(0.8, static_cast<double>(j));
    }
  }
  for (std::size_t i = 0; i < rank; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      right(i, j) = standard_normal(basis_gen);
    }
  }
  Matrix z = multiply(left, right);
  Xoshiro256 gen(seed);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      z(i, j) *= 1.0 + noise * standard_normal(gen);
    }
  }
  return z;
}

/// max |V^T V - I| over the model's components.
double orthonormality_error(const PcaModel& model) {
  const Matrix vtv =
      multiply(transpose(model.components()), model.components());
  return max_abs_diff(vtv, Matrix::identity(vtv.rows()));
}

TEST(ModelBackend, ParseAndNameRoundTrip) {
  for (const ModelBackendKind kind :
       {ModelBackendKind::kExact, ModelBackendKind::kWarm}) {
    EXPECT_EQ(parse_model_backend(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_model_backend("eigen"), InputError);
  EXPECT_THROW((void)parse_model_backend(""), InputError);
  // Names of removed backends are refused, never mapped to a default.
  EXPECT_THROW((void)parse_model_backend("rsvd"), InputError);
  EXPECT_THROW((void)parse_model_backend("fd"), InputError);
}

TEST(ModelBackend, ConfigCodecRoundTrip) {
  for (const ModelBackendKind kind :
       {ModelBackendKind::kExact, ModelBackendKind::kWarm}) {
    ByteWriter writer;
    write_backend_kind(writer, kind);
    const std::vector<std::byte> blob = std::move(writer).take();
    ASSERT_EQ(blob.size(), 1u);
    ByteReader reader(blob);
    EXPECT_EQ(read_backend_kind(reader), kind);
    EXPECT_TRUE(reader.exhausted());
  }
  // Kind bytes of the removed rsvd (2) and fd (3) backends, and garbage.
  for (const std::uint8_t unknown : {2, 3, 255}) {
    const std::vector<std::byte> blob = {static_cast<std::byte>(unknown)};
    ByteReader reader(blob);
    EXPECT_THROW((void)read_backend_kind(reader), ProtocolError)
        << int{unknown};
  }
}

TEST(ModelBackend, WarmMatchesExactSpectrumAcrossRefits) {
  const std::size_t m = 10;
  const auto exact =
      make_model_backend(ModelBackendKind::kExact, m, m);
  const auto warm = make_model_backend(ModelBackendKind::kWarm, m, m);
  for (std::uint64_t step = 0; step < 5; ++step) {
    const Matrix g = drifting_gram(m, 90 + step, 0.02);
    const PcaModel a = exact->fit_gram(g, zero_means(m), 40);
    const PcaModel b = warm->fit_gram(g, zero_means(m), 40);
    ASSERT_EQ(a.singular_values().size(), b.singular_values().size());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(a.singular_values()[j], b.singular_values()[j],
                  1e-9 * std::max(1.0, a.singular_values()[0]))
          << "step " << step << " value " << j;
    }
  }
}

TEST(ModelBackend, WarmDriftRestartIncrementsMetricAndStaysCorrect) {
  Counter& restarts =
      MetricsRegistry::global().counter("spca.pca.drift_restarts");
  const std::size_t m = 8;
  const auto warm = make_model_backend(ModelBackendKind::kWarm, m, m);
  (void)warm->fit_gram(drifting_gram(m, 95, 0.0), zero_means(m), 40);
  const std::uint64_t before = restarts.value();
  // A Gram matrix whose eigenbasis is a random rotation of the previous
  // one swings the subspace far past the drift threshold: the next refit
  // must restart cold and still be right. (Two independent drifting_gram
  // draws share near-axis-aligned eigenbases, so they would NOT drift.)
  Xoshiro256 rot_gen(4242);
  Matrix skew(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      skew(i, j) = skew(j, i) = standard_normal(rot_gen);
    }
  }
  const Matrix q = eigen_symmetric(skew).vectors;
  Vector spectrum(m);
  for (std::size_t j = 0; j < m; ++j) {
    spectrum[j] = std::pow(0.5, static_cast<double>(j)) * 100.0;
  }
  const Matrix g =
      multiply(multiply(q, Matrix::diagonal(spectrum)), transpose(q));
  const PcaModel after = warm->fit_gram(g, zero_means(m), 40);
  EXPECT_GE(restarts.value(), before + 1);
  const auto exact =
      make_model_backend(ModelBackendKind::kExact, m, m);
  const PcaModel reference = exact->fit_gram(g, zero_means(m), 40);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_NEAR(after.singular_values()[j], reference.singular_values()[j],
                1e-9 * std::max(1.0, reference.singular_values()[0]));
  }
}

TEST(ModelBackend, WarmSolvesWideSketchesOnTheSmallSide) {
  // l < m: warm eigen-solves the l x l Z Z^T and lifts V = Z^T U Sigma^-1.
  // Both backends keep l components, with the same spectrum and the same
  // leading subspace as exact's one-sided Jacobi SVD of the rows.
  const std::size_t l = 12;
  const std::size_t m = 40;
  const auto exact = make_model_backend(ModelBackendKind::kExact, m, l);
  const auto warm = make_model_backend(ModelBackendKind::kWarm, m, l);
  for (std::uint64_t step = 0; step < 5; ++step) {
    const Matrix z = drifting_rows(l, m, 10 + step, 0.02, l);
    const PcaModel a = exact->fit_rows(z, zero_means(m), 40);
    const PcaModel b = warm->fit_rows(z, zero_means(m), 40);
    ASSERT_EQ(a.component_count(), l);
    ASSERT_EQ(b.component_count(), l);
    ASSERT_EQ(b.components().rows(), m);
    for (std::size_t j = 0; j < l; ++j) {
      EXPECT_NEAR(a.singular_values()[j], b.singular_values()[j],
                  1e-12 * a.singular_values()[0])
          << "step " << step << " value " << j;
    }
    for (std::size_t j = 0; j < 6; ++j) {
      double cosine = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        cosine += a.components()(i, j) * b.components()(i, j);
      }
      EXPECT_NEAR(std::abs(cosine), 1.0, 1e-12)
          << "step " << step << " axis " << j;
    }
    EXPECT_LT(orthonormality_error(b), 1e-9) << "step " << step;
  }
  // The warm basis is l x l, not m x m.
  EXPECT_EQ(warm->memory_bytes(), l * l * sizeof(double));
}

TEST(ModelBackend, WarmWideSketchOfLowRankKeepsOrthonormalComponents) {
  // A rank-4 sketch of l = 10 rows: six eigenvalues of Z Z^T are rounding
  // noise, and lifting them would divide noise by ~0. The model still
  // carries l orthonormal components and exact's spectrum.
  const std::size_t l = 10;
  const std::size_t m = 30;
  const Matrix z = drifting_rows(l, m, 3, 0.0, 4);
  const PcaModel a = make_model_backend(ModelBackendKind::kExact, m, l)
                         ->fit_rows(z, zero_means(m), 40);
  const PcaModel b = make_model_backend(ModelBackendKind::kWarm, m, l)
                         ->fit_rows(z, zero_means(m), 40);
  ASSERT_EQ(b.component_count(), l);
  EXPECT_LT(orthonormality_error(b), 1e-12);
  // Eigenvalues of a Gram matrix are accurate to rounding of its norm, so
  // compare squared singular values.
  const double scale = a.singular_values()[0] * a.singular_values()[0];
  for (std::size_t j = 0; j < l; ++j) {
    EXPECT_NEAR(a.singular_values()[j] * a.singular_values()[j],
                b.singular_values()[j] * b.singular_values()[j],
                1e-12 * scale)
        << "value " << j;
  }
}

TEST(ModelBackend, WarmBasisShapeFollowsTheSketch) {
  // A basis saved by an m x m (Gram) owner does not fit a backend of the
  // same m whose sketches are wider than long, and vice versa.
  const std::size_t m = 9;
  const auto gram_owner = make_model_backend(ModelBackendKind::kWarm, m, m);
  (void)gram_owner->fit_gram(drifting_gram(m, 1, 0.02), zero_means(m), 20);
  ByteWriter writer;
  gram_owner->save_state(writer);
  const std::vector<std::byte> blob = std::move(writer).take();
  const auto wide = make_model_backend(ModelBackendKind::kWarm, m, 4);
  ByteReader reader(blob);
  EXPECT_THROW(wide->restore_state(reader), ProtocolError);
  // l >= m keeps the m x m basis: a tall owner reads the Gram owner's.
  const auto tall = make_model_backend(ModelBackendKind::kWarm, m, 3 * m);
  ByteReader tall_reader(blob);
  tall->restore_state(tall_reader);
  EXPECT_TRUE(tall_reader.exhausted());
}

class BackendStateRoundTrip
    : public ::testing::TestWithParam<ModelBackendKind> {};

TEST_P(BackendStateRoundTrip, SaveRestoreContinuesBitIdentically) {
  const std::size_t m = 9;
  const auto original = make_model_backend(GetParam(), m, m);
  const auto step = [&](ModelBackend& backend, std::uint64_t seed) {
    return backend.fit_gram(drifting_gram(m, seed, 0.02), zero_means(m), 20);
  };
  (void)step(*original, 1);
  (void)step(*original, 2);

  ByteWriter writer;
  original->save_state(writer);
  const std::vector<std::byte> blob = std::move(writer).take();
  const auto restored = make_model_backend(GetParam(), m, m);
  ByteReader reader(blob);
  restored->restore_state(reader);
  EXPECT_TRUE(reader.exhausted());

  const PcaModel a = step(*original, 3);
  const PcaModel b = step(*restored, 3);
  for (std::size_t j = 0; j < m; ++j) {
    EXPECT_EQ(a.singular_values()[j], b.singular_values()[j]) << "value " << j;
  }
  EXPECT_EQ(max_abs_diff(a.components(), b.components()), 0.0);
}

TEST_P(BackendStateRoundTrip, WideSketchSaveRestoreContinuesBitIdentically) {
  const std::size_t l = 8;
  const std::size_t m = 20;
  const auto original = make_model_backend(GetParam(), m, l);
  const auto step = [&](ModelBackend& backend, std::uint64_t seed) {
    return backend.fit_rows(drifting_rows(l, m, seed, 0.02, l),
                            zero_means(m), 20);
  };
  (void)step(*original, 1);
  (void)step(*original, 2);

  ByteWriter writer;
  original->save_state(writer);
  const std::vector<std::byte> blob = std::move(writer).take();
  const auto restored = make_model_backend(GetParam(), m, l);
  ByteReader reader(blob);
  restored->restore_state(reader);
  EXPECT_TRUE(reader.exhausted());

  const PcaModel a = step(*original, 3);
  const PcaModel b = step(*restored, 3);
  ASSERT_EQ(a.component_count(), l);
  for (std::size_t j = 0; j < l; ++j) {
    EXPECT_EQ(a.singular_values()[j], b.singular_values()[j]) << "value " << j;
  }
  EXPECT_EQ(max_abs_diff(a.components(), b.components()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BackendStateRoundTrip,
                         ::testing::Values(ModelBackendKind::kExact,
                                           ModelBackendKind::kWarm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace spca
