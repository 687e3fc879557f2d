// Durable node state: LocalMonitor and Noc snapshot blobs restore
// bit-identically (including mid-window, with unflushed volume buckets and
// a live model), and malformed blobs — the SketchDetector's too — are
// rejected cleanly as ProtocolError.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "core/sketch_detector.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc.hpp"
#include "dist/sim_network.hpp"
#include "net/scenario.hpp"

namespace spca {
namespace {

NetScenarioConfig small_scenario() {
  NetScenarioConfig config;
  config.topology = "diamond";
  config.intervals = 40;
  config.window = 12;
  config.sketch_rows = 8;
  config.monitors = 2;
  config.seed = 7;
  config.anomalies = 3;
  return config;
}

ProjectionSource source_of(const SketchDetectorConfig& det) {
  return det.projection == ProjectionKind::kVerySparse
             ? ProjectionSource::very_sparse(det.seed, det.window)
             : ProjectionSource(det.projection, det.seed, det.sparsity);
}

std::vector<LocalMonitor> build_monitors(const NetScenario& scenario) {
  const SketchDetectorConfig& det = scenario.detector;
  const std::size_t m = scenario.trace.num_flows();
  std::vector<LocalMonitor> monitors;
  for (std::size_t k = 1; k <= scenario.config.monitors; ++k) {
    monitors.emplace_back(
        static_cast<NodeId>(k),
        scenario_flows_of(m, scenario.config.monitors,
                          static_cast<NodeId>(k)),
        det.window, det.epsilon, det.sketch_rows, source_of(det));
  }
  return monitors;
}

/// One lock-step interval of the manual deployment; mirrors what
/// DistributedDetector::observe does.
std::optional<Detection> run_interval(const NetScenario& scenario, Noc& noc,
                                      std::vector<LocalMonitor>& monitors,
                                      SimNetwork& net, std::int64_t t) {
  for (LocalMonitor& monitor : monitors) {
    for (const FlowId flow : monitor.flows()) {
      monitor.ingest_volume(
          flow, scenario.trace.volumes()(static_cast<std::size_t>(t), flow));
    }
    monitor.end_interval(t, net);
  }
  const Vector x = noc.collect_volumes(t, net);
  if (t + 1 < static_cast<std::int64_t>(scenario.detector.window)) {
    return std::nullopt;
  }
  const std::vector<NodeId> ids =
      scenario_monitor_ids(scenario.config.monitors);
  return noc.detect(t, x, ids, net, [&] {
    for (LocalMonitor& monitor : monitors) monitor.handle_mail(net);
  });
}

/// Copy of `blob` with the scalar at byte `offset` overwritten by `value`.
template <typename T>
std::vector<std::byte> poked(std::vector<std::byte> blob, std::size_t offset,
                             T value) {
  (void)blob.at(offset + sizeof(T) - 1);  // the field must lie in the blob
  std::memcpy(blob.data() + offset, &value, sizeof(T));
  return blob;
}

/// The scalar of type T at byte `offset` of `blob`.
template <typename T>
T peek(const std::vector<std::byte>& blob, std::size_t offset) {
  T value{};
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  return value;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 40;

/// Byte offsets inside the model section the SPCN and SPCA blobs share:
/// PcaModel::save_state (u64 sample_count | f64[] singular_values
/// | f64[] components | f64[] means), then u64 rank | f64 threshold_squared.
/// A model of m flows keeps k = min(l, m) components.
struct ModelOffsets {
  std::size_t sample_count;
  std::size_t first_singular_value;
  std::size_t first_component;
  std::size_t first_mean;
  std::size_t rank;
  std::size_t threshold_squared;
  std::size_t end;
};

ModelOffsets model_offsets(std::size_t sample_count, std::size_t m,
                           std::size_t k) {
  // Three length-prefixed f64 arrays: k values, m*k components, m means.
  const std::size_t first_singular_value = sample_count + 16;
  const std::size_t first_component = first_singular_value + 8 * k + 8;
  const std::size_t first_mean = first_component + 8 * m * k + 8;
  const std::size_t rank = first_mean + 8 * m;
  return {sample_count, first_singular_value, first_component, first_mean,
          rank,         rank + 8,             rank + 16};
}

/// Size of the warm backend's state once it holds a basis: u8 flag
/// | f64[] basis (row-major k*k).
std::size_t warm_state_bytes(std::size_t k) { return 1 + 8 + 8 * k * k; }

/// Expects every model-section poke a checkpoint decoder must refuse.
template <typename Restore>
void expect_model_pokes_rejected(const std::vector<std::byte>& blob,
                                 const ModelOffsets& at, std::size_t k,
                                 const Restore& restore) {
  for (const std::uint64_t n : {0, 1}) {
    EXPECT_THROW((void)restore(poked(blob, at.sample_count, n)),
                 ProtocolError)
        << "sample_count " << n;
  }
  for (const double v : {kNaN, kInf, -1.0}) {
    EXPECT_THROW((void)restore(poked(blob, at.first_singular_value, v)),
                 ProtocolError)
        << "singular value " << v;
    EXPECT_THROW((void)restore(poked(blob, at.threshold_squared, v)),
                 ProtocolError)
        << "threshold_squared " << v;
  }
  // A non-finite mean or component makes every distance NaN, which never
  // exceeds the threshold: the node would restore and never alarm again.
  for (const double v : {kNaN, kInf}) {
    EXPECT_THROW((void)restore(poked(blob, at.first_mean, v)), ProtocolError)
        << "mean " << v;
    EXPECT_THROW((void)restore(poked(blob, at.first_component, v)),
                 ProtocolError)
        << "component " << v;
  }
  // Rank k = min(l, m) leaves a residual subspace of rounding noise at
  // best (none at all when l >= m), rank 0 is never selected, and anything
  // above k breaks the next detect.
  for (const std::uint64_t r : {std::uint64_t{0}, std::uint64_t{k},
                                std::uint64_t{k + 5}}) {
    EXPECT_THROW((void)restore(poked(blob, at.rank, r)), ProtocolError)
        << "rank " << r;
  }
}

/// Expects every poke of the warm backend's state at `at` to be refused:
/// a basis length that does not fit the blob, and a non-finite entry.
template <typename Restore>
void expect_warm_pokes_rejected(const std::vector<std::byte>& blob,
                                std::size_t at, std::size_t k,
                                const Restore& restore) {
  ASSERT_EQ(peek<std::uint8_t>(blob, at), 1u);
  ASSERT_EQ(peek<std::uint64_t>(blob, at + 1), k * k);
  EXPECT_THROW((void)restore(poked(blob, at + 1, kHugeCount)), ProtocolError);
  for (const double v : {kNaN, kInf}) {
    EXPECT_THROW((void)restore(poked(blob, at + 9, v)), ProtocolError)
        << "basis entry " << v;
  }
}

TEST(NodeCheckpoint, MonitorRestoresMidWindowWithUnflushedVolumes) {
  const NetScenario scenario = build_scenario(small_scenario());
  const SketchDetectorConfig& det = scenario.detector;
  const std::vector<FlowId> flows =
      scenario_flows_of(scenario.trace.num_flows(), 2, 1);
  LocalMonitor monitor(1, flows, det.window, det.epsilon, det.sketch_rows,
                       source_of(det));

  // Flush 20 intervals, then leave half-ingested volumes in the counter —
  // the awkward mid-interval state a snapshot must carry faithfully.
  for (std::int64_t t = 0; t < 20; ++t) {
    for (const FlowId flow : flows) {
      monitor.ingest_volume(
          flow, scenario.trace.volumes()(static_cast<std::size_t>(t), flow));
    }
    monitor.absorb_interval(t);
  }
  for (const FlowId flow : flows) monitor.ingest_volume(flow, 123.5);

  LocalMonitor restored = LocalMonitor::restore_state(monitor.save_state());
  EXPECT_EQ(restored.id(), monitor.id());
  EXPECT_EQ(restored.flows(), monitor.flows());

  // Both finish interval 20 and answer a sketch pull: reports and
  // responses must agree bit for bit.
  SimNetwork net_a;
  SimNetwork net_b;
  monitor.end_interval(20, net_a);
  restored.end_interval(20, net_b);
  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = kNocId;
  request.to = 1;
  request.interval = 20;
  monitor.handle_request(request, net_a);
  restored.handle_request(request, net_b);

  const std::vector<Message> mail_a = net_a.drain(kNocId);
  const std::vector<Message> mail_b = net_b.drain(kNocId);
  ASSERT_EQ(mail_a.size(), 2u);
  ASSERT_EQ(mail_b.size(), 2u);
  for (std::size_t i = 0; i < mail_a.size(); ++i) {
    EXPECT_EQ(mail_a[i].ids, mail_b[i].ids);
    ASSERT_EQ(mail_a[i].values.size(), mail_b[i].values.size());
    for (std::size_t j = 0; j < mail_a[i].values.size(); ++j) {
      EXPECT_EQ(mail_a[i].values[j], mail_b[i].values[j])
          << "message " << i << " value " << j;
    }
  }
}

TEST(NodeCheckpoint, DeploymentSnapshotMidRunContinuesBitIdentically) {
  const NetScenario scenario = build_scenario(small_scenario());
  const auto intervals = static_cast<std::int64_t>(scenario.config.intervals);
  const std::int64_t snap_at = 25;  // past warm-up, with a fitted model

  // Reference: one uninterrupted run.
  std::vector<double> ref_distances;
  std::vector<std::int64_t> ref_alarms;
  {
    SimNetwork net;
    Noc noc(scenario.trace.num_flows(),
            noc_config_from(scenario.detector, /*host_sketches=*/false));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < intervals; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      ref_distances.push_back(det->distance);
      if (det->alarm) ref_alarms.push_back(t);
    }
  }

  // Snapshot the whole deployment after interval snap_at - 1, restore every
  // node from its blob, and continue with the clones only.
  std::vector<double> distances;
  std::vector<std::int64_t> alarms;
  {
    SimNetwork net;
    Noc noc(scenario.trace.num_flows(),
            noc_config_from(scenario.detector, /*host_sketches=*/false));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < snap_at; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }

    Noc restored_noc = Noc::restore_state(noc.save_state());
    EXPECT_EQ(restored_noc.sketch_pulls(), noc.sketch_pulls());
    std::vector<LocalMonitor> restored_monitors;
    for (const LocalMonitor& monitor : monitors) {
      restored_monitors.push_back(
          LocalMonitor::restore_state(monitor.save_state()));
    }
    SimNetwork fresh_net;
    for (std::int64_t t = snap_at; t < intervals; ++t) {
      const auto det = run_interval(scenario, restored_noc,
                                    restored_monitors, fresh_net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }
  }

  EXPECT_EQ(alarms, ref_alarms);
  ASSERT_EQ(distances.size(), ref_distances.size());
  for (std::size_t i = 0; i < ref_distances.size(); ++i) {
    EXPECT_EQ(distances[i], ref_distances[i]) << "detection index " << i;
  }
}

class NodeCheckpointBackend
    : public ::testing::TestWithParam<ModelBackendKind> {};

TEST_P(NodeCheckpointBackend, DeploymentSnapshotContinuesBitIdentically) {
  // Same shape as the exact-path snapshot test above, but per model
  // backend: whatever inter-refit state the backend carries (the warm
  // basis) must survive the round trip so the continued run stays
  // bit-identical.
  NetScenarioConfig scenario_config = small_scenario();
  scenario_config.model_backend = to_string(GetParam());
  const NetScenario scenario = build_scenario(scenario_config);
  const auto intervals = static_cast<std::int64_t>(scenario.config.intervals);
  const std::int64_t snap_at = 25;

  std::vector<double> ref_distances;
  std::vector<std::int64_t> ref_alarms;
  {
    SimNetwork net;
    Noc noc(scenario.trace.num_flows(),
            noc_config_from(scenario.detector, /*host_sketches=*/false));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < intervals; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      ref_distances.push_back(det->distance);
      if (det->alarm) ref_alarms.push_back(t);
    }
  }

  std::vector<double> distances;
  std::vector<std::int64_t> alarms;
  {
    SimNetwork net;
    Noc noc(scenario.trace.num_flows(),
            noc_config_from(scenario.detector, /*host_sketches=*/false));
    std::vector<LocalMonitor> monitors = build_monitors(scenario);
    for (std::int64_t t = 0; t < snap_at; ++t) {
      const auto det = run_interval(scenario, noc, monitors, net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }

    Noc restored_noc = Noc::restore_state(noc.save_state(), GetParam());
    EXPECT_EQ(restored_noc.backend().kind(), GetParam());
    std::vector<LocalMonitor> restored_monitors;
    for (const LocalMonitor& monitor : monitors) {
      restored_monitors.push_back(
          LocalMonitor::restore_state(monitor.save_state()));
    }
    SimNetwork fresh_net;
    for (std::int64_t t = snap_at; t < intervals; ++t) {
      const auto det = run_interval(scenario, restored_noc,
                                    restored_monitors, fresh_net, t);
      if (!det) continue;
      distances.push_back(det->distance);
      if (det->alarm) alarms.push_back(t);
    }
  }

  EXPECT_EQ(alarms, ref_alarms);
  ASSERT_EQ(distances.size(), ref_distances.size());
  for (std::size_t i = 0; i < ref_distances.size(); ++i) {
    EXPECT_EQ(distances[i], ref_distances[i]) << "detection index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, NodeCheckpointBackend,
                         ::testing::Values(ModelBackendKind::kExact,
                                           ModelBackendKind::kWarm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(NodeCheckpoint, CrossBackendRestoreIsRejected) {
  // A blob written under one backend must never be absorbed by a node
  // configured for another: the inter-refit state is kind-specific, and a
  // silent mismatch would corrupt the trajectory instead of failing fast.
  NetScenarioConfig scenario_config = small_scenario();
  scenario_config.model_backend = "warm";
  const NetScenario scenario = build_scenario(scenario_config);
  SimNetwork net;
  Noc noc(scenario.trace.num_flows(),
          noc_config_from(scenario.detector, /*host_sketches=*/false));
  std::vector<LocalMonitor> monitors = build_monitors(scenario);
  for (std::int64_t t = 0; t < 20; ++t) {
    (void)run_interval(scenario, noc, monitors, net, t);
  }
  const std::vector<std::byte> blob = noc.save_state();

  // Matching expectation restores fine; the other kind is rejected.
  EXPECT_NO_THROW((void)Noc::restore_state(blob, ModelBackendKind::kWarm));
  EXPECT_NO_THROW((void)Noc::restore_state(blob));
  EXPECT_THROW((void)Noc::restore_state(blob, ModelBackendKind::kExact),
               ProtocolError);
}

TEST(NodeCheckpoint, MonitorBlobCorruptionIsRejectedCleanly) {
  const NetScenario scenario = build_scenario(small_scenario());
  const SketchDetectorConfig& det = scenario.detector;
  const std::vector<FlowId> flows =
      scenario_flows_of(scenario.trace.num_flows(), 2, 1);
  LocalMonitor monitor(1, flows, det.window, det.epsilon, det.sketch_rows,
                       source_of(det));
  for (std::int64_t t = 0; t < 8; ++t) {
    for (const FlowId flow : flows) monitor.ingest_volume(flow, 10.0 + t);
    monitor.absorb_interval(t);
  }
  const std::vector<std::byte> blob = monitor.save_state();
  const auto restore = [](const std::vector<std::byte>& b) {
    return LocalMonitor::restore_state(b);
  };

  // Wrong magic.
  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] = static_cast<std::byte>(0xFF);
  EXPECT_THROW((void)LocalMonitor::restore_state(bad_magic), ProtocolError);

  // Wrong version.
  std::vector<std::byte> bad_version = blob;
  bad_version[4] = static_cast<std::byte>(0x7F);
  EXPECT_THROW((void)LocalMonitor::restore_state(bad_version),
               ProtocolError);

  // Trailing garbage.
  std::vector<std::byte> padded = blob;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)LocalMonitor::restore_state(padded), ProtocolError);

  // Truncation at every prefix length must throw, never crash or hang
  // (run under ASan/UBSan in CI).
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 97)) {
    const std::vector<std::byte> truncated(blob.begin(),
                                           blob.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   len));
    EXPECT_THROW((void)LocalMonitor::restore_state(truncated), ProtocolError)
        << "length " << len;
  }

  // Field pokes (offsets from the SPCM layout in local_monitor_io.cpp):
  // each value would otherwise escape as ContractViolation or an
  // allocation failure instead of the ProtocolError a daemon catches.
  constexpr std::size_t kWindow = 12, kEpsilon = 20, kSketchRows = 28,
                        kProjection = 37, kSparsity = 46, kFlowIds = 62;
  ASSERT_EQ(peek<std::uint64_t>(blob, kWindow), det.window);
  ASSERT_EQ(peek<std::uint64_t>(blob, kSketchRows), det.sketch_rows);
  for (const std::uint64_t w : {0, 1}) {
    EXPECT_THROW((void)restore(poked(blob, kWindow, w)), ProtocolError)
        << "window " << w;
  }
  for (const double e : {0.0, 1.0, kNaN}) {
    EXPECT_THROW((void)restore(poked(blob, kEpsilon, e)), ProtocolError)
        << "epsilon " << e;
  }
  EXPECT_THROW((void)restore(poked(blob, kSketchRows, std::uint64_t{0})),
               ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kProjection, std::uint8_t{9})),
               ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kSparsity, 0.5)), ProtocolError);

  // The first sketch follows the flow ids, the counter's buckets and its
  // interval count: i64 now | u64 bucket_count | first bucket.
  const std::size_t nf = flows.size();
  const std::size_t now_at = kFlowIds + 4 * nf + 8 + 8 * nf + 8;
  const std::size_t buckets_at = now_at + 8;
  const std::size_t first_bucket = buckets_at + 8;
  ASSERT_EQ(peek<std::int64_t>(blob, now_at), 7);
  ASSERT_GE(peek<std::uint64_t>(blob, buckets_at), 1u);
  EXPECT_THROW(
      (void)restore(poked(blob, buckets_at, std::uint64_t{1} << 61)),
      ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, buckets_at, kHugeCount)),
               ProtocolError);
  // A bucket newer than the sketch's clock, or an empty one.
  EXPECT_THROW((void)restore(poked(blob, first_bucket, std::int64_t{8})),
               ProtocolError);
  EXPECT_THROW(
      (void)restore(poked(blob, first_bucket + 8, std::uint64_t{0})),
      ProtocolError);
}

TEST(NodeCheckpoint, NocBlobCorruptionIsRejectedCleanly) {
  // The default warm backend, so the blob carries the basis every
  // deployment checkpoints after the model section. The snapshot follows
  // the first fit, which always keeps its basis; in this small world a
  // later refit can rotate past the drift threshold and drop it.
  const NetScenario scenario = build_scenario(small_scenario());
  ASSERT_EQ(scenario.detector.backend, ModelBackendKind::kWarm);
  SimNetwork net;
  Noc noc(scenario.trace.num_flows(),
          noc_config_from(scenario.detector, /*host_sketches=*/false));
  std::vector<LocalMonitor> monitors = build_monitors(scenario);
  // Intervals 0..n-1: the NOC fits its first model at t = n - 1.
  const auto n = static_cast<std::int64_t>(scenario.detector.window);
  for (std::int64_t t = 0; t < n; ++t) {
    (void)run_interval(scenario, noc, monitors, net, t);
  }
  ASSERT_TRUE(noc.model().has_value());
  const std::vector<std::byte> blob = noc.save_state();
  const auto restore = [](const std::vector<std::byte>& b) {
    return Noc::restore_state(b);
  };

  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] = static_cast<std::byte>(0xFF);
  EXPECT_THROW((void)Noc::restore_state(bad_magic), ProtocolError);

  std::vector<std::byte> padded = blob;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)Noc::restore_state(padded), ProtocolError);

  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 211)) {
    const std::vector<std::byte> truncated(blob.begin(),
                                           blob.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   len));
    EXPECT_THROW((void)Noc::restore_state(truncated), ProtocolError)
        << "length " << len;
  }

  // Version 3 (m components and an m x m warm basis whatever l), version 2
  // (four backends and their tuning knobs) and version 1 blobs are no
  // longer readable.
  for (const std::uint32_t version : {1, 2, 3}) {
    EXPECT_THROW((void)restore(poked(blob, 4, version)), ProtocolError)
        << "version " << version;
  }

  // Field pokes (offsets from the SPCN v4 layout in noc_io.cpp): each value
  // would otherwise escape as ContractViolation or an allocation failure,
  // or restore a NOC that never alarms again.
  constexpr std::size_t kWindow = 8, kSketchRows = 16, kAlpha = 24,
                        kRankKind = 32, kEnergy = 41, kKsigma = 49,
                        kScree = 57, kProjection = 75, kBackend = 92,
                        kFlows = 93;
  const std::size_t m = scenario.trace.num_flows();
  ASSERT_EQ(peek<std::uint64_t>(blob, kWindow), scenario.detector.window);
  ASSERT_EQ(peek<double>(blob, kAlpha), scenario.detector.alpha);
  ASSERT_EQ(peek<std::uint64_t>(blob, kFlows), m);
  for (const std::uint64_t w : {0, 1}) {
    EXPECT_THROW((void)restore(poked(blob, kWindow, w)), ProtocolError)
        << "window " << w;
  }
  EXPECT_THROW((void)restore(poked(blob, kSketchRows, std::uint64_t{0})),
               ProtocolError);
  for (const double a : {0.0, 1.0, 2.0, kNaN}) {
    EXPECT_THROW((void)restore(poked(blob, kAlpha, a)), ProtocolError)
        << "alpha " << a;
  }
  EXPECT_THROW((void)restore(poked(blob, kRankKind, std::uint8_t{9})),
               ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kEnergy, 1.5)), ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kKsigma, 0.0)), ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kScree, kNaN)), ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kProjection, std::uint8_t{9})),
               ProtocolError);
  for (const std::uint8_t kind : {2, 3}) {  // the removed rsvd/fd kinds
    EXPECT_THROW((void)restore(poked(blob, kBackend, kind)), ProtocolError)
        << "backend kind " << int{kind};
  }
  for (const std::uint64_t flows : {std::uint64_t{0}, std::uint64_t{1},
                                    kHugeCount}) {
    EXPECT_THROW((void)restore(poked(blob, kFlows, flows)), ProtocolError)
        << "m " << flows;
  }

  // The warm state ends the blob, and the model section precedes it. The
  // sketch is wider than long (l < m), so both keep k = l components.
  const std::size_t k = scenario.detector.sketch_rows;
  ASSERT_LT(k, m);
  const std::size_t warm_at = blob.size() - warm_state_bytes(k);
  const ModelOffsets at =
      model_offsets(warm_at - model_offsets(0, m, k).end, m, k);
  ASSERT_EQ(at.end, warm_at);
  ASSERT_EQ(peek<std::uint64_t>(blob, at.sample_count),
            noc.model()->sample_count());
  ASSERT_EQ(peek<double>(blob, at.first_singular_value),
            noc.model()->singular_values()[0]);
  ASSERT_EQ(peek<double>(blob, at.first_mean),
            noc.model()->column_means()[0]);
  expect_model_pokes_rejected(blob, at, k, restore);
  expect_warm_pokes_rejected(blob, warm_at, k, restore);
}

TEST(NodeCheckpoint, DetectorBlobCorruptionIsRejectedCleanly) {
  // The SPCA twin of the SPCN test above: the single-process detector's
  // blob carries the same config, model and warm-backend sections.
  const NetScenario scenario = build_scenario(small_scenario());
  const SketchDetectorConfig& config = scenario.detector;
  ASSERT_EQ(config.backend, ModelBackendKind::kWarm);
  const std::size_t m = scenario.trace.num_flows();
  SketchDetector detector(m, config);
  // Snapshot after the first fit, while the warm backend holds its basis
  // (see the SPCN test above).
  for (std::size_t t = 0; t < config.window; ++t) {
    (void)detector.observe(static_cast<std::int64_t>(t),
                           scenario.trace.row(t));
  }
  ASSERT_TRUE(detector.model().fitted());
  const std::vector<std::byte> blob = detector.save_state();
  const auto restore = [](const std::vector<std::byte>& b) {
    return SketchDetector::restore_state(b);
  };

  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 211)) {
    const std::vector<std::byte> truncated(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)restore(truncated), ProtocolError) << "length " << len;
  }
  for (const std::uint32_t version : {1, 2, 3}) {
    EXPECT_THROW((void)restore(poked(blob, 4, version)), ProtocolError)
        << "version " << version;
  }

  // Offsets from the SPCA v4 layout in sketch_detector_io.cpp.
  constexpr std::size_t kWindow = 8, kEpsilon = 16, kSketchRows = 24,
                        kAlpha = 32, kRankKind = 40, kEnergy = 49,
                        kProjection = 73, kSparsity = 74, kBackend = 91,
                        kFlows = 92, kSampleCount = 117;
  ASSERT_EQ(peek<std::uint64_t>(blob, kWindow), config.window);
  ASSERT_EQ(peek<double>(blob, kAlpha), config.alpha);
  ASSERT_EQ(peek<std::uint64_t>(blob, kFlows), m);
  for (const std::uint64_t w : {0, 1}) {
    EXPECT_THROW((void)restore(poked(blob, kWindow, w)), ProtocolError)
        << "window " << w;
  }
  for (const double e : {0.0, 1.0, kNaN}) {
    EXPECT_THROW((void)restore(poked(blob, kEpsilon, e)), ProtocolError)
        << "epsilon " << e;
  }
  EXPECT_THROW((void)restore(poked(blob, kSketchRows, std::uint64_t{0})),
               ProtocolError);
  for (const double a : {0.0, 1.0, 2.0, kNaN}) {
    EXPECT_THROW((void)restore(poked(blob, kAlpha, a)), ProtocolError)
        << "alpha " << a;
  }
  EXPECT_THROW((void)restore(poked(blob, kRankKind, std::uint8_t{9})),
               ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kEnergy, 0.0)), ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kProjection, std::uint8_t{9})),
               ProtocolError);
  EXPECT_THROW((void)restore(poked(blob, kSparsity, 0.5)), ProtocolError);
  for (const std::uint8_t kind : {2, 3}) {
    EXPECT_THROW((void)restore(poked(blob, kBackend, kind)), ProtocolError)
        << "backend kind " << int{kind};
  }
  for (const std::uint64_t flows : {std::uint64_t{0}, std::uint64_t{1},
                                    kHugeCount}) {
    EXPECT_THROW((void)restore(poked(blob, kFlows, flows)), ProtocolError)
        << "m " << flows;
  }

  const std::size_t k = config.sketch_rows;
  ASSERT_LT(k, m);
  const ModelOffsets at = model_offsets(kSampleCount, m, k);
  ASSERT_EQ(peek<std::uint64_t>(blob, at.sample_count),
            detector.model().sample_count());
  ASSERT_EQ(peek<std::uint64_t>(blob, at.rank), detector.normal_rank());
  expect_model_pokes_rejected(blob, at, k, restore);
  expect_warm_pokes_rejected(blob, at.end, k, restore);

  // The flow sketches follow the warm state: i64 now | u64 bucket_count.
  const std::size_t first_sketch = at.end + warm_state_bytes(k);
  ASSERT_EQ(peek<std::int64_t>(blob, first_sketch),
            static_cast<std::int64_t>(config.window) - 1);
  EXPECT_THROW((void)restore(poked(blob, first_sketch + 8, kHugeCount)),
               ProtocolError);
}

}  // namespace
}  // namespace spca
