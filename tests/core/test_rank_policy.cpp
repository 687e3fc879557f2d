#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "core/detector.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace spca {
namespace {

PcaModel fitted_model(std::size_t m, std::uint64_t seed, Matrix* data_out) {
  Xoshiro256 gen(seed);
  Matrix x(200, m);
  for (std::size_t i = 0; i < 200; ++i) {
    const double shared = 10.0 * standard_normal(gen);
    for (std::size_t j = 0; j < m; ++j) {
      x(i, j) = 50.0 + shared + standard_normal(gen);
    }
  }
  if (data_out != nullptr) *data_out = x;
  return PcaModel::from_data(x);
}

TEST(RankPolicy, FixedReturnsConfiguredRank) {
  const PcaModel model = fitted_model(6, 1, nullptr);
  EXPECT_EQ(RankPolicy::fixed(3).select(model, Matrix{}), 3u);
}

TEST(RankPolicy, FixedClampedToValidRange) {
  const PcaModel model = fitted_model(6, 2, nullptr);
  EXPECT_EQ(RankPolicy::fixed(0).select(model, Matrix{}), 1u);
  EXPECT_EQ(RankPolicy::fixed(99).select(model, Matrix{}), 5u);
}

TEST(RankPolicy, SketchModelRanksStopBelowTheSketchLength) {
  // A 4 x 10 sketch keeps 4 components: every policy picks r <= 3.
  Xoshiro256 gen(8);
  Matrix z(4, 10);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 10; ++j) z(i, j) = standard_normal(gen);
  }
  const PcaModel model = PcaModel::from_sketch(z, Vector(10), 100);
  ASSERT_EQ(model.component_count(), 4u);
  EXPECT_EQ(RankPolicy::fixed(4).select(model, z), 3u);
  EXPECT_EQ(RankPolicy::fixed(9).select(model, z), 3u);
  EXPECT_EQ(RankPolicy::energy(1.0).select(model, z), 3u);
  EXPECT_LE(RankPolicy::scree(0.001).select(model, z), 3u);
  EXPECT_LE(RankPolicy::ksigma_policy(50.0).select(model, z), 3u);
  EXPECT_EQ(RankPolicy::max_rank(4), 3u);
  EXPECT_EQ(RankPolicy::max_rank(1), 1u);
}

TEST(RankPolicy, EnergyFindsDominantComponent) {
  // The shared factor dominates: 90% energy needs very few components.
  const PcaModel model = fitted_model(8, 3, nullptr);
  const std::size_t r = RankPolicy::energy(0.9).select(model, Matrix{});
  EXPECT_LE(r, 3u);
  EXPECT_GE(r, 1u);
}

TEST(RankPolicy, KSigmaRequiresFittedData) {
  const PcaModel model = fitted_model(4, 4, nullptr);
  EXPECT_THROW((void)RankPolicy::ksigma_policy(3.0).select(model, Matrix{}),
               ContractViolation);
}

TEST(RankPolicy, ScreeFindsTheSharedFactor) {
  // One dominant shared factor: the scree elbow is at r = 1.
  const PcaModel model = fitted_model(6, 6, nullptr);
  EXPECT_EQ(RankPolicy::scree(0.1).select(model, Matrix{}), 1u);
}

TEST(RankPolicy, KSigmaUsesProvidedData) {
  Matrix data;
  const PcaModel model = fitted_model(5, 5, &data);
  const std::size_t r = RankPolicy::ksigma_policy(8.0).select(model, data);
  EXPECT_GE(r, 1u);
  EXPECT_LE(r, 4u);  // clamped to m-1 even when no outlier found
}

}  // namespace
}  // namespace spca
