#include "dist/distributed_detector.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "common/contracts.hpp"
#include "sketch/projection_window.hpp"

namespace spca {
namespace {

using testing::small_topology;
using testing::small_trace;

SketchDetectorConfig config_for(std::size_t window, std::size_t l) {
  SketchDetectorConfig config;
  config.window = window;
  config.epsilon = 0.01;
  config.sketch_rows = l;
  config.rank_policy = RankPolicy::fixed(3);
  config.seed = 7;
  return config;
}

TEST(DistributedDetector, WarmupMirrorsSingleProcess) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 40, 1);
  DistributedDetector detector(trace.num_flows(), 4, config_for(32, 8));
  for (std::size_t t = 0; t < 31; ++t) {
    EXPECT_FALSE(
        detector.observe(static_cast<std::int64_t>(t), trace.row(t)).ready);
  }
  EXPECT_TRUE(detector.observe(31, trace.row(31)).ready);
}

TEST(DistributedDetector, MonitorCountRespected) {
  const Topology topo = small_topology();
  DistributedDetector detector(16, 5, config_for(16, 4));
  EXPECT_EQ(detector.num_monitors(), 5u);
}

TEST(DistributedDetector, VolumeReportsFlowEveryInterval) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 20, 2);
  DistributedDetector detector(trace.num_flows(), 4, config_for(16, 4));
  for (std::size_t t = 0; t < 20; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  const NetworkStats& stats = detector.network_stats();
  // 4 monitors x 20 intervals volume reports.
  EXPECT_EQ(stats.messages_by_type[static_cast<int>(
                MessageType::kVolumeReport)],
            80u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(DistributedDetector, LazySavesSketchTrafficVersusEager) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 120, 3);
  SketchDetectorConfig lazy = config_for(64, 16);
  lazy.lazy = true;
  SketchDetectorConfig eager = lazy;
  eager.lazy = false;

  DistributedDetector lazy_det(trace.num_flows(), 4, lazy);
  DistributedDetector eager_det(trace.num_flows(), 4, eager);
  for (std::size_t t = 0; t < 120; ++t) {
    (void)lazy_det.observe(static_cast<std::int64_t>(t), trace.row(t));
    (void)eager_det.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  const auto lazy_sketch_bytes =
      lazy_det.network_stats()
          .bytes_by_type[static_cast<int>(MessageType::kSketchResponse)];
  const auto eager_sketch_bytes =
      eager_det.network_stats()
          .bytes_by_type[static_cast<int>(MessageType::kSketchResponse)];
  EXPECT_LT(lazy_sketch_bytes, eager_sketch_bytes / 2);
}

TEST(DistributedDetector, AgreesWithSingleProcessSketchDetector) {
  // The load-bearing parity property: the distributed deployment is the
  // same algorithm as the single-process detector, verdict for verdict.
  const Topology topo = small_topology();
  const TraceSet trace =
      small_trace(topo, 150, 4, /*anomalies=*/4, /*warmup=*/70);
  const SketchDetectorConfig config = config_for(64, 24);
  SketchDetector reference(trace.num_flows(), config);
  DistributedDetector distributed(trace.num_flows(), 4, config);

  for (std::size_t t = 0; t < 150; ++t) {
    const Detection a =
        reference.observe(static_cast<std::int64_t>(t), trace.row(t));
    const Detection b =
        distributed.observe(static_cast<std::int64_t>(t), trace.row(t));
    ASSERT_EQ(a.ready, b.ready) << "t=" << t;
    if (!a.ready) continue;
    EXPECT_EQ(a.alarm, b.alarm) << "t=" << t;
    EXPECT_NEAR(a.distance, b.distance, 1e-6 * (1.0 + a.distance))
        << "t=" << t;
    EXPECT_NEAR(a.threshold, b.threshold, 1e-6 * (1.0 + a.threshold))
        << "t=" << t;
    EXPECT_EQ(a.normal_rank, b.normal_rank) << "t=" << t;
  }
}

TEST(DistributedDetector, NocHostedModeMatchesMonitorHostedVerdicts) {
  // Theorem 1's alternative deployment: identical algorithm, different
  // placement of the histograms — verdicts must agree bit for bit.
  const Topology topo = small_topology();
  const TraceSet trace =
      small_trace(topo, 140, 6, /*anomalies=*/3, /*warmup=*/70);
  const SketchDetectorConfig config = config_for(64, 16);
  DistributedDetector monitor_hosted(trace.num_flows(), 4, config, false);
  DistributedDetector noc_hosted(trace.num_flows(), 4, config, true);
  EXPECT_TRUE(noc_hosted.noc_hosted_sketches());

  for (std::size_t t = 0; t < 140; ++t) {
    const Detection a =
        monitor_hosted.observe(static_cast<std::int64_t>(t), trace.row(t));
    const Detection b =
        noc_hosted.observe(static_cast<std::int64_t>(t), trace.row(t));
    ASSERT_EQ(a.ready, b.ready) << "t=" << t;
    ASSERT_EQ(a.alarm, b.alarm) << "t=" << t;
    ASSERT_EQ(a.distance, b.distance) << "t=" << t;
  }
}

TEST(DistributedDetector, NocHostedModeSendsNoSketchMessages) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 100, 7);
  DistributedDetector deployment(trace.num_flows(), 4, config_for(64, 16),
                                 /*noc_hosted_sketches=*/true);
  for (std::size_t t = 0; t < 100; ++t) {
    (void)deployment.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  const NetworkStats& stats = deployment.network_stats();
  EXPECT_EQ(stats.messages_by_type[static_cast<int>(
                MessageType::kSketchRequest)],
            0u);
  EXPECT_EQ(stats.messages_by_type[static_cast<int>(
                MessageType::kSketchResponse)],
            0u);
  // Monitors hold no sketch state at all in this mode.
  EXPECT_EQ(deployment.monitor_memory_bytes(), 0u);
  // The NOC still recomputed models (locally).
  EXPECT_GE(deployment.noc().sketch_pulls(), 1u);
}

TEST(DistributedDetector, MonitorMemoryScalesWithSketchRows) {
  const Topology topo = small_topology();
  const TraceSet trace = small_trace(topo, 40, 5);
  DistributedDetector small(trace.num_flows(), 4, config_for(32, 4));
  DistributedDetector large(trace.num_flows(), 4, config_for(32, 64));
  for (std::size_t t = 0; t < 40; ++t) {
    (void)small.observe(static_cast<std::int64_t>(t), trace.row(t));
    (void)large.observe(static_cast<std::int64_t>(t), trace.row(t));
  }
  // The sketch-row-dependent state is each monitor's projection window:
  // R + 1 rows of l coefficients (R = n = 32 here, so every bucket is a
  // window singleton without a payload). The buckets themselves cost the
  // same at l = 4 and l = 64, so the two deployments differ by exactly the
  // four windows' extra 64 - 4 coefficients per row.
  const std::size_t rows = ProjectionWindow::span_for(32, 0.01) + 1;
  EXPECT_EQ(large.monitor_memory_bytes() - small.monitor_memory_bytes(),
            4 * rows * (64 - 4) * sizeof(double));
}

TEST(DistributedDetector, ValidatesConstruction) {
  EXPECT_THROW(DistributedDetector(4, 0, config_for(16, 4)),
               ContractViolation);
  EXPECT_THROW(DistributedDetector(4, 5, config_for(16, 4)),
               ContractViolation);
  EXPECT_THROW(DistributedDetector(1, 1, config_for(16, 4)),
               ContractViolation);
}

}  // namespace
}  // namespace spca
