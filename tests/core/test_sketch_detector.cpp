#include "core/sketch_detector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../helpers.hpp"
#include "common/contracts.hpp"
#include "core/lakhina_detector.hpp"
#include "obs/metrics.hpp"

namespace spca {
namespace {

using testing::small_topology;
using testing::small_trace;

SketchDetectorConfig small_config(std::size_t window, std::size_t l) {
  SketchDetectorConfig config;
  config.window = window;
  config.epsilon = 0.01;
  config.sketch_rows = l;
  config.alpha = 0.01;
  config.rank_policy = RankPolicy::fixed(3);
  config.seed = 99;
  return config;
}

TEST(SketchDetector, WarmupThenReady) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 40, 1);
  SketchDetector detector(trace.num_flows(), small_config(32, 16));
  for (std::size_t t = 0; t < 31; ++t) {
    EXPECT_FALSE(
        detector.observe(static_cast<std::int64_t>(t), trace.row(t)).ready);
  }
  EXPECT_TRUE(detector.observe(31, trace.row(31)).ready);
}

TEST(SketchDetector, SketchMatrixHasConfiguredShape) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 40, 2);
  SketchDetector detector(trace.num_flows(), small_config(32, 12));
  for (std::size_t t = 0; t < 40; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  const Matrix z = detector.sketch_matrix();
  EXPECT_EQ(z.rows(), 12u);
  EXPECT_EQ(z.cols(), trace.num_flows());
  EXPECT_GT(frobenius_norm(z), 0.0);
}

TEST(SketchDetector, MeansTrackTrafficLevel) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 64, 3);
  SketchDetector detector(trace.num_flows(), small_config(48, 8));
  for (std::size_t t = 0; t < 64; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  const Vector means = detector.sketch_means();
  for (std::size_t j = 0; j < trace.num_flows(); ++j) {
    EXPECT_GT(means[j], 0.0);
  }
}

TEST(SketchDetector, QuietTrafficRarelyAlarms) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 220, 4);
  SketchDetectorConfig config = small_config(96, 64);
  SketchDetector detector(trace.num_flows(), config);
  std::size_t alarms = 0, ready = 0;
  for (std::size_t t = 0; t < 220; ++t) {
    const Detection det =
        detector.observe(static_cast<std::int64_t>(t), trace.row(t));
    if (det.ready) {
      ++ready;
      if (det.alarm) ++alarms;
    }
  }
  ASSERT_GT(ready, 0u);
  EXPECT_LT(static_cast<double>(alarms) / static_cast<double>(ready), 0.15);
}

TEST(SketchDetector, DetectsVolumeSpike) {
  const Topology topo = small_topology();
  TraceSet trace = small_trace(topo, 160, 5);
  for (const std::size_t f : {1u, 6u, 9u}) {
    trace.volumes()(150, f) *= 4.0;
  }
  SketchDetector detector(trace.num_flows(), small_config(128, 64));
  Detection at_spike;
  for (std::size_t t = 0; t < 160; ++t) {
    const Detection det =
        detector.observe(static_cast<std::int64_t>(t), trace.row(t));
    if (t == 150) at_spike = det;
  }
  EXPECT_TRUE(at_spike.ready);
  EXPECT_TRUE(at_spike.alarm);
}

TEST(SketchDetector, LazyModeRefreshesOnlyOnSuspicion) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 200, 6);
  SketchDetectorConfig lazy = small_config(96, 32);
  lazy.lazy = true;
  SketchDetectorConfig eager = lazy;
  eager.lazy = false;
  SketchDetector lazy_det(trace.num_flows(), lazy);
  SketchDetector eager_det(trace.num_flows(), eager);
  for (std::size_t t = 0; t < 200; ++t) {
    (void)lazy_det.observe(static_cast<std::int64_t>(t), trace.row(t));
    (void)eager_det.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  // Eager refits every ready interval; lazy only on suspicion.
  EXPECT_LT(lazy_det.model_computations(), eager_det.model_computations());
  EXPECT_EQ(eager_det.model_computations(), 200u - 96u + 1u);
}

TEST(SketchDetector, LazyAlarmTriggersRefreshBeforeAlarming) {
  const Topology topo = small_topology();
  TraceSet trace = small_trace(topo, 140, 7);
  for (std::size_t f = 0; f < 8; ++f) {
    trace.volumes()(130, f) *= 5.0;
  }
  SketchDetector detector(trace.num_flows(), small_config(96, 32));
  Detection at_spike;
  for (std::size_t t = 0; t < 140; ++t) {
    const Detection det =
        detector.observe(static_cast<std::int64_t>(t), trace.row(t));
    if (t == 130) at_spike = det;
  }
  // The spike must have forced a model refresh (lazy re-check protocol).
  EXPECT_TRUE(at_spike.model_refreshed);
  EXPECT_TRUE(at_spike.alarm);
}

TEST(SketchDetector, ApproximatesExactDetectorOnQuietTraffic) {
  // Core claim: with adequate l the sketch verdicts track Lakhina's.
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 260, 8, /*anomalies=*/5,
                                     /*warmup=*/140);
  LakhinaConfig exact_config;
  exact_config.window = 128;
  exact_config.rank_policy = RankPolicy::fixed(3);
  LakhinaDetector exact(trace.num_flows(), exact_config);
  SketchDetectorConfig sketch_config = small_config(128, 96);
  sketch_config.lazy = false;
  SketchDetector sketch(trace.num_flows(), sketch_config);

  std::size_t agreements = 0, total = 0;
  for (std::size_t t = 0; t < 260; ++t) {
    const Detection de =
        exact.observe(static_cast<std::int64_t>(t), trace.row(t));
    const Detection ds =
        sketch.observe(static_cast<std::int64_t>(t), trace.row(t));
    if (de.ready && ds.ready) {
      ++total;
      if (de.alarm == ds.alarm) ++agreements;
    }
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(static_cast<double>(agreements) / static_cast<double>(total),
            0.85);
}

TEST(SketchDetector, MemoryGrowsSublinearlyInWindow) {
  // Theorem 1's space claim is asymptotic with a 10/epsilon constant in the
  // merge rules, so at laptop-scale windows the honest check is growth rate:
  // multiplying n by 8 must multiply summary bytes by far less than 8.
  const Topology topo = small_topology();
  const auto bytes_for = [&](std::size_t n) {
    const TraceSet trace = small_trace(topo, 2 * n, 9);
    SketchDetectorConfig config = small_config(n, 8);
    config.epsilon = 0.1;
    SketchDetector detector(trace.num_flows(), config);
    for (std::size_t t = 0; t < 2 * n; ++t) {
      (void)detector.observe(static_cast<std::int64_t>(t), trace.row(t));
    }
    return detector.memory_bytes();
  };
  const std::size_t at_1k = bytes_for(1024);
  const std::size_t at_8k = bytes_for(8192);
  EXPECT_LT(static_cast<double>(at_8k), 3.0 * static_cast<double>(at_1k));
}

TEST(SketchDetector, MemoryBytesCountsFixedMembersAndMatchesGauge) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 80, 11);
  SketchDetectorConfig config = small_config(64, 16);
  config.lazy = false;  // eager mode refreshes every ready interval
  SketchDetector detector(trace.num_flows(), config);

  // Even before any traffic the total must cover the detector object and
  // the per-flow sketches, not just the histogram buckets.
  EXPECT_GT(detector.memory_bytes(), sizeof(SketchDetector));

  for (std::size_t t = 0; t < 80; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  // A fitted model adds its matrices to the footprint.
  EXPECT_GT(detector.memory_bytes(),
            sizeof(SketchDetector) +
                trace.num_flows() * config.sketch_rows * sizeof(double));

  // The last observe() ended in refresh_model(), which mirrors the current
  // footprint into the gauge: both views must agree exactly.
  const double gauge =
      MetricsRegistry::global().gauge("spca.sketch.memory_bytes").value();
  EXPECT_EQ(static_cast<std::size_t>(gauge), detector.memory_bytes());
}

TEST(SketchDetector, FixedRankAtOrAboveTheSketchLengthIsClamped) {
  // l = 6 sketch rows for the small topology's m flows: a fixed rank >= l
  // is clamped to l - 1, and the Q threshold is built from the residual
  // spectrum the sketch really has.
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 80, 12);
  constexpr std::size_t kRows = 6;
  ASSERT_GT(trace.num_flows(), kRows);
  for (const std::size_t fixed : {kRows, kRows + 4}) {
    SketchDetectorConfig config = small_config(64, kRows);
    config.rank_policy = RankPolicy::fixed(fixed);
    config.lazy = false;
    SketchDetector detector(trace.num_flows(), config);
    Detection det;
    for (std::size_t t = 0; t < 80; ++t) {
      det = detector.observe(static_cast<std::int64_t>(t), trace.row(t));
    }
    ASSERT_TRUE(det.ready);
    EXPECT_EQ(det.normal_rank, kRows - 1) << "fixed rank " << fixed;
    EXPECT_TRUE(std::isfinite(det.threshold)) << "fixed rank " << fixed;
    EXPECT_GT(det.threshold, 0.0) << "fixed rank " << fixed;
    EXPECT_EQ(detector.model().component_count(), kRows);
    EXPECT_EQ(detector.distance_profile().size(), kRows - 1);
  }
}

TEST(SketchDetector, ConfigValidation) {
  EXPECT_THROW(SketchDetector(1, small_config(16, 4)), ContractViolation);
  SketchDetectorConfig bad = small_config(16, 0);
  EXPECT_THROW(SketchDetector(4, bad), ContractViolation);
  bad = small_config(1, 4);
  EXPECT_THROW(SketchDetector(4, bad), ContractViolation);
}

TEST(SketchDetector, DistanceProfileMonotone) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 80, 10);
  SketchDetector detector(trace.num_flows(), small_config(64, 32));
  for (std::size_t t = 0; t < 80; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  const Vector profile = detector.distance_profile();
  for (std::size_t r = 1; r < profile.size(); ++r) {
    EXPECT_LE(profile[r], profile[r - 1] + 1e-9);
  }
}

}  // namespace
}  // namespace spca
