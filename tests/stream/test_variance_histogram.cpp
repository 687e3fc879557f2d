#include "stream/variance_histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "stream/sliding_window.hpp"

namespace spca {
namespace {

TEST(MergeBuckets, CombinesCountsMeansVariances) {
  // Merge {1, 3} (mean 2, V 2) with {5} (mean 5, V 0): union {1,3,5} has
  // mean 3 and V = 4 + 0 + 1 = 8.
  VhBucket a{10, 2, 2.0, 2.0, {}};
  VhBucket b{12, 1, 5.0, 0.0, {}};
  const VhBucket merged = merge_buckets(a, b);
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.mean, 3.0);
  EXPECT_DOUBLE_EQ(merged.variance, 8.0);
  EXPECT_EQ(merged.timestamp, 10);  // older timestamp wins (eq. text)
}

TEST(MergeBuckets, PayloadsAddElementwise) {
  VhBucket a{1, 1, 0.0, 0.0, {1.0, 2.0}};
  VhBucket b{2, 1, 0.0, 0.0, {10.0, 20.0}};
  const VhBucket merged = merge_buckets(a, b);
  EXPECT_DOUBLE_EQ(merged.payload[0], 11.0);
  EXPECT_DOUBLE_EQ(merged.payload[1], 22.0);
}

TEST(MergeBuckets, EmptyBucketIsIdentity) {
  VhBucket empty;
  VhBucket a{5, 3, 2.0, 1.5, {}};
  const VhBucket left = merge_buckets(empty, a);
  EXPECT_EQ(left.count, 3u);
  EXPECT_DOUBLE_EQ(left.variance, 1.5);
}

TEST(MergeBuckets, MismatchedPayloadsRejected) {
  VhBucket a{1, 1, 0.0, 0.0, {1.0}};
  VhBucket b{2, 1, 0.0, 0.0, {1.0, 2.0}};
  EXPECT_THROW((void)merge_buckets(a, b), ContractViolation);
}

TEST(VarianceHistogram, ExactForShortStreams) {
  // Before any merge the histogram is exact.
  VarianceHistogram vh(64, 0.5);
  SlidingWindowStats exact(64);
  for (std::int64_t t = 0; t < 8; ++t) {
    const double x = static_cast<double>((t * 7) % 5);
    vh.add(t, x);
    exact.add(x);
  }
  EXPECT_NEAR(vh.variance_estimate(), exact.sum_squared_deviations(), 1e-12);
  const VhBucket all = vh.aggregate();
  EXPECT_EQ(all.count, 8u);
  EXPECT_NEAR(all.mean, exact.mean(), 1e-12);
}

TEST(VarianceHistogram, RejectsNonIncreasingTime) {
  VarianceHistogram vh(16, 0.1);
  vh.add(3, 1.0);
  EXPECT_THROW(vh.add(3, 2.0), ContractViolation);
}

TEST(VarianceHistogram, RejectsBadParameters) {
  EXPECT_THROW(VarianceHistogram(1, 0.1), ContractViolation);
  EXPECT_THROW(VarianceHistogram(8, 0.0), ContractViolation);
  EXPECT_THROW(VarianceHistogram(8, 1.0), ContractViolation);
}

TEST(VarianceHistogram, RejectsWrongPayloadSize) {
  VarianceHistogram vh(16, 0.1, 2);
  const double payload[2] = {1.0, 2.0};
  EXPECT_NO_THROW(vh.add(0, 1.0, payload));
  EXPECT_THROW(vh.add(1, 1.0), ContractViolation);
}

// The central property test: Lemma 1's guarantee (1-eps) V <= V-hat <= V
// against the exact sliding-window variance, across epsilons and signal
// shapes.
struct VhCase {
  double epsilon;
  int signal;  // 0 = iid noise, 1 = trend, 2 = diurnal-like, 3 = constant
};

class VhApproximationTest : public ::testing::TestWithParam<VhCase> {
 protected:
  static double sample(int signal, std::int64_t t, Xoshiro256& gen) {
    switch (signal) {
      case 0:
        return 100.0 + 10.0 * standard_normal(gen);
      case 1:
        return 0.05 * static_cast<double>(t) + standard_normal(gen);
      case 2:
        return 50.0 + 20.0 * std::sin(static_cast<double>(t) * 0.02) +
               standard_normal(gen);
      default:
        return 42.0;
    }
  }
};

TEST_P(VhApproximationTest, Lemma1HoldsThroughoutStream) {
  const auto [epsilon, signal] = GetParam();
  const std::uint64_t window = 256;
  VarianceHistogram vh(window, epsilon);
  SlidingWindowStats exact(window);
  Xoshiro256 gen(7 + static_cast<std::uint64_t>(signal));

  for (std::int64_t t = 0; t < 2000; ++t) {
    const double x = sample(signal, t, gen);
    vh.add(t, x);
    exact.add(x);
    const double v_exact = exact.sum_squared_deviations();
    const double v_hat = vh.variance_estimate();
    // Small slack on both sides for floating-point accumulation.
    EXPECT_LE(v_hat, v_exact * (1.0 + 1e-9) + 1e-6) << "t=" << t;
    EXPECT_GE(v_hat, (1.0 - epsilon) * v_exact - 1e-6) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonsAndSignals, VhApproximationTest,
    ::testing::Values(VhCase{0.01, 0}, VhCase{0.05, 0}, VhCase{0.2, 0},
                      VhCase{0.01, 1}, VhCase{0.1, 1}, VhCase{0.01, 2},
                      VhCase{0.1, 2}, VhCase{0.05, 3}));

TEST(VarianceHistogram, BucketCountStaysLogarithmic) {
  // Space bound: O((1/eps) log n) buckets.
  const double epsilon = 0.05;
  const std::uint64_t window = 4096;
  VarianceHistogram vh(window, epsilon);
  Xoshiro256 gen(13);
  std::size_t max_buckets = 0;
  for (std::int64_t t = 0; t < 3 * static_cast<std::int64_t>(window); ++t) {
    vh.add(t, 100.0 + 5.0 * standard_normal(gen));
    max_buckets = std::max(max_buckets, vh.bucket_count());
  }
  const double budget =
      (1.0 / epsilon) * std::log2(static_cast<double>(window)) * 8.0;
  EXPECT_LT(static_cast<double>(max_buckets), budget);
}

TEST(VarianceHistogram, WindowCountNeverExceedsN) {
  VarianceHistogram vh(32, 0.2);
  Xoshiro256 gen(5);
  for (std::int64_t t = 0; t < 300; ++t) {
    vh.add(t, standard_normal(gen));
    EXPECT_LE(vh.aggregate().count, 32u);
  }
}

TEST(VarianceHistogram, ConstantStreamHasZeroVariance) {
  VarianceHistogram vh(64, 0.1);
  for (std::int64_t t = 0; t < 200; ++t) {
    vh.add(t, 3.25);
  }
  EXPECT_NEAR(vh.variance_estimate(), 0.0, 1e-9);
  EXPECT_NEAR(vh.aggregate().mean, 3.25, 1e-12);
}

TEST(VarianceHistogram, TimestampGapsExpireEverything) {
  VarianceHistogram vh(16, 0.1);
  vh.add(0, 1.0);
  vh.add(1, 2.0);
  vh.add(100, 3.0);  // jump far beyond the window
  const VhBucket all = vh.aggregate();
  EXPECT_EQ(all.count, 1u);
  EXPECT_DOUBLE_EQ(all.mean, 3.0);
}

/// Sum of every live bucket's payload: the owner's fold (FlowSketch folds
/// its Z and R sums the same way, with the projection window).
std::vector<double> payload_sum(const VarianceHistogram& vh) {
  std::vector<double> sum(vh.payload_size(), 0.0);
  for (const VhBucket& b : vh.buckets()) {
    for (std::size_t k = 0; k < sum.size(); ++k) sum[k] += b.payload[k];
  }
  return sum;
}

TEST(VarianceHistogram, PayloadSumsAreExactDespiteMerging) {
  // The additive payload (the sketch's Z and R sums) is never approximated:
  // merging only combines partial sums, so the payload summed over buckets
  // must equal the exact running sum over retained elements — and over ALL
  // window elements whenever no bucket has expired yet.
  const std::uint64_t window = 128;
  VarianceHistogram vh(window, 0.5, /*payload_size=*/3);
  Xoshiro256 gen(21);
  double exact[3] = {0.0, 0.0, 0.0};
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(window); ++t) {
    const double x = 10.0 + standard_normal(gen);
    const double payload[3] = {x, 2.0 * x, 1.0};
    vh.add(t, x, payload);
    for (int k = 0; k < 3; ++k) exact[k] += payload[k];
    const std::vector<double> sum = payload_sum(vh);
    for (int k = 0; k < 3; ++k) {
      ASSERT_NEAR(sum[static_cast<std::size_t>(k)], exact[k],
                  1e-9 * std::abs(exact[k]))
          << "t=" << t << " k=" << k;
    }
  }
}

TEST(VarianceHistogram, PayloadMatchesRetainedElementSumAfterExpiry) {
  // Past the window boundary the retained subsequence is what the aggregate
  // summarizes; its count tells exactly which suffix of elements survived,
  // and the payload must be the exact sum over that suffix.
  const std::uint64_t window = 64;
  VarianceHistogram vh(window, 0.5, /*payload_size=*/1);
  std::vector<double> values;
  Xoshiro256 gen(22);
  for (std::int64_t t = 0; t < 300; ++t) {
    const double x = 5.0 + standard_normal(gen);
    values.push_back(x);
    const double payload[1] = {x};
    vh.add(t, x, payload);
    const VhBucket all = vh.aggregate();
    double suffix_sum = 0.0;
    for (std::size_t i = values.size() - all.count; i < values.size(); ++i) {
      suffix_sum += values[i];
    }
    ASSERT_NEAR(payload_sum(vh)[0], suffix_sum, 1e-9 * std::abs(suffix_sum))
        << "t=" << t;
    ASSERT_NEAR(all.mean, suffix_sum / static_cast<double>(all.count),
                1e-9) << "t=" << t;
  }
}

TEST(VarianceHistogram, NoMergeBoundOfRules2And3) {
  // A merge needs a suffix of at least 20/eps elements (Rule 2) and at most
  // floor(n/2) - 2 (Rule 3): at eps = 0.1 a stream merges at n = 404 and
  // never at 403; at eps = 0.01, at 4004 and never at 4003.
  struct Boundary {
    double epsilon;
    std::uint64_t first_merging;
  };
  for (const Boundary b : {Boundary{0.1, 404}, Boundary{0.01, 4004}}) {
    for (const std::uint64_t n : {b.first_merging - 1, b.first_merging}) {
      VarianceHistogram vh(n, b.epsilon);
      Xoshiro256 gen(n);
      for (std::int64_t t = 0; t < 2 * static_cast<std::int64_t>(n); ++t) {
        vh.add(t, 100.0 + standard_normal(gen));
      }
      const bool merging = n == b.first_merging;
      EXPECT_EQ(vh.merge_count() > 0, merging) << "n=" << n;
      if (!merging) {
        EXPECT_EQ(vh.bucket_count(), n);
      }
    }
  }
}

TEST(VarianceHistogram, PayloadlessBucketsMustGetPayloadsBeforeMerging) {
  // eps = 0.5: Rule 2 lets two buckets merge once 40 newer elements exist,
  // so the 42nd element makes the two oldest the first merge candidates.
  VarianceHistogram vh(256, 0.5, /*payload_size=*/2);
  for (std::int64_t t = 0; t < 41; ++t) {
    vh.add_without_payload(t, 1.0);
  }
  EXPECT_EQ(vh.merge_count(), 0u);
  EXPECT_EQ(vh.memory_bytes(),
            sizeof(VarianceHistogram) + 41 * sizeof(VhBucket));
  EXPECT_THROW(vh.add_without_payload(41, 1.0), ContractViolation);

  VarianceHistogram ready(256, 0.5, 2);
  for (std::int64_t t = 0; t < 41; ++t) ready.add_without_payload(t, 1.0);
  for (const std::size_t i : {39u, 40u}) {
    const std::span<double> payload = ready.attach_payload(i);
    payload[0] = 1.0;
    payload[1] = 2.0;
  }
  ready.add_without_payload(41, 1.0);
  EXPECT_EQ(ready.merge_count(), 1u);
  EXPECT_EQ(ready.buckets().back().payload,
            (std::vector<double>{2.0, 4.0}));
}

TEST(VarianceHistogram, MemoryBytesTracksBuckets) {
  VarianceHistogram vh(64, 0.1, 4);
  const std::size_t empty_bytes = vh.memory_bytes();
  const double payload[4] = {1, 2, 3, 4};
  vh.add(0, 1.0, payload);
  EXPECT_GT(vh.memory_bytes(), empty_bytes);
}

}  // namespace
}  // namespace spca
