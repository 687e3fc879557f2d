// Bit-identity of the batched tug-of-war coefficient-row kernel: the AVX2
// path, the scalar fallback, and FlowSketch::add_batch must all reproduce
// the serial per-update path exactly — not approximately — at every size.
#include "sketch/projection_batch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rand/projection_prf.hpp"
#include "sketch/flow_sketch.hpp"

namespace spca {
namespace {

/// Restores the kernel dispatch override on scope exit.
class ScopedForceScalar final {
 public:
  explicit ScopedForceScalar(bool force) {
    force_scalar_projection_kernel(force);
  }
  ~ScopedForceScalar() { force_scalar_projection_kernel(false); }
};

std::vector<double> reference_row(const ProjectionSource& projection,
                                  std::int64_t t, std::size_t l) {
  std::vector<double> row(l);
  for (std::size_t k = 0; k < l; ++k) row[k] = projection.value(t, k);
  return row;
}

TEST(ProjectionBatch, TowPayloadMatchesProjectionSource) {
  const ProjectionSource projection(ProjectionKind::kTugOfWar, 1234);
  for (const std::size_t l : {1u, 7u, 64u, 4096u}) {
    for (const std::int64_t t : {0, 1, 17, 100000}) {
      std::vector<double> row(l);
      fill_tow_row(projection.seed(), t, l, row.data());
      const std::vector<double> want = reference_row(projection, t, l);
      ASSERT_EQ(0, std::memcmp(row.data(), want.data(),
                               row.size() * sizeof(double)))
          << "l=" << l << " t=" << t;
    }
  }
}

TEST(ProjectionBatch, ScalarAndAvx2KernelsAgreeBitwise) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "host has no AVX2";
  const std::uint64_t seed = 99;
  for (const std::size_t l : {1u, 3u, 4u, 7u, 8u, 64u, 4096u}) {
    std::vector<double> simd(l);
    std::vector<double> scalar(l);
    {
      ScopedForceScalar off(false);
      ASSERT_TRUE(projection_kernel_uses_avx2());
      fill_tow_row(seed, 42, l, simd.data());
    }
    {
      ScopedForceScalar on(true);
      ASSERT_FALSE(projection_kernel_uses_avx2());
      fill_tow_row(seed, 42, l, scalar.data());
    }
    ASSERT_EQ(0, std::memcmp(simd.data(), scalar.data(),
                             simd.size() * sizeof(double)))
        << "l=" << l;
  }
}

/// Deep equality of two sketches: identical bucket lists (all statistics and
/// payload words compared bitwise) and identical reported outputs.
void expect_sketches_identical(const FlowSketch& a,
                               const ProjectionWindow& window_a,
                               const FlowSketch& b,
                               const ProjectionWindow& window_b) {
  const auto& ha = a.histogram();
  const auto& hb = b.histogram();
  ASSERT_EQ(ha.bucket_count(), hb.bucket_count());
  ASSERT_EQ(ha.now(), hb.now());
  for (std::size_t i = 0; i < ha.bucket_count(); ++i) {
    const VhBucket& x = ha.buckets()[i];
    const VhBucket& y = hb.buckets()[i];
    ASSERT_EQ(x.timestamp, y.timestamp);
    ASSERT_EQ(x.count, y.count);
    ASSERT_EQ(0, std::memcmp(&x.mean, &y.mean, sizeof x.mean));
    ASSERT_EQ(0, std::memcmp(&x.variance, &y.variance, sizeof x.variance));
    ASSERT_EQ(x.payload.size(), y.payload.size());
    if (x.payload.empty()) continue;  // a window singleton on both sides
    ASSERT_EQ(0, std::memcmp(x.payload.data(), y.payload.data(),
                             x.payload.size() * sizeof(double)));
  }
  const Vector za = a.sketch(window_a);
  const Vector zb = b.sketch(window_b);
  ASSERT_EQ(za.size(), zb.size());
  for (std::size_t k = 0; k < za.size(); ++k) {
    const double xa = za[k];
    const double xb = zb[k];
    ASSERT_EQ(0, std::memcmp(&xa, &xb, sizeof(double)));
  }
}

/// Streams `total` updates into one sketch via serial add() and another via
/// add_batch() chunks of `batch`, asserting identical state afterwards.
void check_add_batch(ProjectionKind kind, std::size_t batch,
                     std::size_t total) {
  const ProjectionSource projection =
      kind == ProjectionKind::kVerySparse
          ? ProjectionSource::very_sparse(7, 256)
          : ProjectionSource(kind, 7);
  ProjectionWindow serial_window(projection, /*sketch_rows=*/16,
                                 /*window=*/256, /*epsilon=*/0.05);
  ProjectionWindow batched_window(projection, 16, 256, 0.05);
  FlowSketch serial(serial_window);
  FlowSketch batched(batched_window);

  std::vector<SketchUpdate> updates(total);
  for (std::size_t i = 0; i < total; ++i) {
    updates[i].t = static_cast<std::int64_t>(i);
    // Irregular volumes (including exact zeros) to vary the bucket merges.
    updates[i].volume =
        (i % 11 == 0) ? 0.0 : 1000.0 + 13.25 * static_cast<double>(i % 97);
  }
  for (const SketchUpdate& u : updates) {
    serial_window.advance(u.t);
    serial.add(u.t, u.volume, serial_window);
  }
  // The owner's pattern (LocalMonitor::absorb_block): the whole block
  // enters the window before the batched update reads it.
  batched_window.reserve_block(batch);
  for (std::size_t lo = 0; lo < total; lo += batch) {
    const std::size_t n = std::min(batch, total - lo);
    for (std::size_t i = lo; i < lo + n; ++i) {
      batched_window.advance(updates[i].t);
    }
    batched.add_batch(std::span<const SketchUpdate>(updates.data() + lo, n),
                      batched_window);
  }
  expect_sketches_identical(serial, serial_window, batched, batched_window);
}

TEST(ProjectionBatch, AddBatchBitIdenticalAtEveryBatchSize) {
  for (const std::size_t batch : {1u, 7u, 64u, 4096u}) {
    for (const ProjectionKind kind :
         {ProjectionKind::kTugOfWar, ProjectionKind::kGaussian,
          ProjectionKind::kSparse, ProjectionKind::kVerySparse}) {
      check_add_batch(kind, batch, 4500);
    }
  }
}

TEST(ProjectionBatch, AddBatchBitIdenticalWithAvx2ForcedOff) {
  ScopedForceScalar forced(true);
  for (const std::size_t batch : {1u, 7u, 64u, 4096u}) {
    check_add_batch(ProjectionKind::kTugOfWar, batch, 4500);
  }
}

TEST(ProjectionBatch, PrfFactorsThroughBase) {
  // The hoisted (seed, t) prefix must compose to the full PRF — the property
  // both kernels rely on to amortize per-update hashing.
  for (const std::uint64_t seed : {0ull, 7ull, 0xffffffffffffffffull}) {
    for (const std::int64_t t : {0, 5, 1 << 20}) {
      const std::uint64_t base = projection_prf_base(seed, t);
      for (const std::size_t k : {0u, 1u, 63u, 4095u}) {
        ASSERT_EQ(projection_prf(seed, t, k, 0),
                  projection_prf_finish(base, k, 0));
      }
    }
  }
}

}  // namespace
}  // namespace spca
