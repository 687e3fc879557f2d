// Detector-level backend equivalence: the warm backend must be
// verdict-identical to exact (bit-comparable alarms and distances).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "../helpers.hpp"
#include "core/sketch_detector.hpp"

namespace spca {
namespace {

/// Per-interval verdict trail of one detector run.
struct DetectorRunLite {
  std::vector<bool> ready;
  std::vector<bool> alarms;
  std::vector<double> distances;
};

SketchDetectorConfig base_config(ModelBackendKind kind) {
  SketchDetectorConfig config;
  config.window = 16;
  config.sketch_rows = 12;
  config.rank_policy = RankPolicy::fixed(4);
  config.seed = 99;
  config.backend = kind;
  return config;
}

DetectorRunLite run_with(ModelBackendKind kind, const TraceSet& trace) {
  SketchDetector detector(trace.num_flows(), base_config(kind));
  DetectorRunLite run;
  for (std::int64_t t = 0;
       t < static_cast<std::int64_t>(trace.num_intervals()); ++t) {
    const Detection det =
        detector.observe(t, trace.row(static_cast<std::size_t>(t)));
    run.ready.push_back(det.ready);
    run.alarms.push_back(det.alarm);
    run.distances.push_back(det.distance);
  }
  return run;
}

TEST(BackendEquivalence, WarmVerdictsMatchExactOnFlatTrace) {
  // Alarm verdicts must be bit-comparable; distances agree to solver
  // rounding (warm Jacobi visits rotations in a different order than cold,
  // so the last few bits can differ).
  const Topology topo = spca::testing::small_topology();
  const TraceSet trace = spca::testing::flat_trace(topo, 64, 5);
  const DetectorRunLite exact = run_with(ModelBackendKind::kExact, trace);
  const DetectorRunLite warm = run_with(ModelBackendKind::kWarm, trace);
  ASSERT_EQ(exact.alarms.size(), warm.alarms.size());
  EXPECT_EQ(exact.ready, warm.ready);
  EXPECT_EQ(exact.alarms, warm.alarms);
  for (std::size_t t = 0; t < exact.distances.size(); ++t) {
    EXPECT_NEAR(exact.distances[t], warm.distances[t],
                1e-6 * std::max(1.0, exact.distances[t]))
        << "interval " << t;
  }
}

}  // namespace
}  // namespace spca
