#include "dist/noc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "dist/local_monitor.hpp"
#include "dist/sim_network.hpp"
#include "obs/metrics.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace spca {
namespace {

NocConfig small_noc_config(std::size_t l) {
  NocConfig config;
  config.window = 16;
  config.sketch_rows = l;
  config.alpha = 0.01;
  config.rank_policy = RankPolicy::fixed(2);
  return config;
}

/// Runs a NOC hosting its own sketches (no monitors) over `intervals` of
/// noisy traffic on `flows` flows and returns the last detection.
Detection run_hosted(Noc& noc, std::size_t flows, std::int64_t intervals) {
  SimNetwork net;
  Xoshiro256 gen(5);
  Detection det;
  for (std::int64_t t = 0; t < intervals; ++t) {
    Message report;
    report.type = MessageType::kVolumeReport;
    report.from = 1;
    report.to = kNocId;
    report.interval = t;
    for (std::size_t j = 0; j < flows; ++j) {
      report.ids.push_back(static_cast<std::uint32_t>(j));
      report.values.push_back(1000.0 * static_cast<double>(j + 1) +
                              25.0 * standard_normal(gen));
    }
    const Vector x = noc.assemble_volumes(t, {report});
    if (t + 1 >= static_cast<std::int64_t>(noc.config().window)) {
      det = noc.detect(t, x, {}, net, [] {});
    }
  }
  return det;
}

TEST(Noc, FixedRankAtOrAboveTheSketchLengthIsClamped) {
  // l = 3 sketch rows for m = 6 flows: the sketch matrix has rank at most
  // 3, so a fixed rank >= l is clamped to l - 1 and the Q threshold comes
  // from the real residual spectrum, not from rounding noise.
  constexpr std::size_t kFlows = 6;
  constexpr std::size_t kRows = 3;
  for (const std::size_t fixed : {kRows, kRows + 2}) {
    NocConfig config = small_noc_config(kRows);
    config.host_sketches = true;
    config.rank_policy = RankPolicy::fixed(fixed);
    Noc noc(kFlows, config);
    const Detection det = run_hosted(noc, kFlows, 24);
    ASSERT_TRUE(det.ready);
    EXPECT_EQ(det.normal_rank, kRows - 1) << "fixed rank " << fixed;
    EXPECT_TRUE(std::isfinite(det.threshold)) << "fixed rank " << fixed;
    EXPECT_GT(det.threshold, 0.0) << "fixed rank " << fixed;
    ASSERT_TRUE(noc.model().has_value());
    EXPECT_EQ(noc.model()->component_count(), kRows);
  }
}

TEST(Noc, MemoryBytesCountsSketchStateModelAndBasisAndMatchesGauge) {
  // At l < m the NOC holds m sketches of l values, an m x l model and an
  // l x l warm basis: O(m l), with no m x m term.
  constexpr std::size_t kFlows = 12;
  constexpr std::size_t kRows = 4;
  Noc noc(kFlows, small_noc_config(kRows));
  const std::size_t empty = noc.memory_bytes();
  EXPECT_GT(empty, sizeof(Noc));

  Xoshiro256 gen(6);
  Message response;
  response.type = MessageType::kSketchResponse;
  response.from = 1;
  response.to = kNocId;
  for (std::size_t j = 0; j < kFlows; ++j) {
    response.ids.push_back(static_cast<std::uint32_t>(j));
    response.values.push_back(100.0);  // mean
    response.values.push_back(16.0);   // count
    for (std::size_t k = 0; k < kRows; ++k) {
      response.values.push_back(standard_normal(gen));
    }
  }
  noc.ingest_sketch_response(response);
  noc.refit();
  ASSERT_EQ(noc.model()->component_count(), kRows);
  EXPECT_EQ(noc.backend().memory_bytes(), kRows * kRows * sizeof(double));
  const std::size_t sketch_bytes = kFlows * kRows * sizeof(double);
  const std::size_t model_bytes =
      (kRows + kFlows + kFlows * kRows) * sizeof(double);
  EXPECT_EQ(noc.memory_bytes(), empty + sketch_bytes + model_bytes +
                                    noc.backend().memory_bytes());
  const double gauge =
      MetricsRegistry::global().gauge("spca.noc.memory_bytes").value();
  EXPECT_EQ(static_cast<std::size_t>(gauge), noc.memory_bytes());
}

TEST(Noc, CollectsVolumesFromMultipleMonitors) {
  SimNetwork net;
  Noc noc(4, small_noc_config(4));
  Message r1;
  r1.type = MessageType::kVolumeReport;
  r1.from = 1;
  r1.to = kNocId;
  r1.interval = 5;
  r1.ids = {0, 2};
  r1.values = {10.0, 30.0};
  Message r2 = r1;
  r2.from = 2;
  r2.ids = {1, 3};
  r2.values = {20.0, 40.0};
  net.send(r1);
  net.send(r2);
  const Vector x = noc.collect_volumes(5, net);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(x[j], 10.0 * static_cast<double>(j + 1));
  }
}

TEST(Noc, MissingReportsRejected) {
  SimNetwork net;
  Noc noc(4, small_noc_config(4));
  Message r1;
  r1.type = MessageType::kVolumeReport;
  r1.from = 1;
  r1.to = kNocId;
  r1.interval = 0;
  r1.ids = {0, 1};
  r1.values = {1.0, 2.0};
  net.send(r1);
  EXPECT_THROW((void)noc.collect_volumes(0, net), ProtocolError);
}

TEST(Noc, DuplicateFlowReportRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message r;
  r.type = MessageType::kVolumeReport;
  r.from = 1;
  r.to = kNocId;
  r.interval = 0;
  r.ids = {0, 0};
  r.values = {1.0, 2.0};
  net.send(r);
  EXPECT_THROW((void)noc.collect_volumes(0, net), ProtocolError);
}

TEST(Noc, WrongIntervalRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message r;
  r.type = MessageType::kVolumeReport;
  r.from = 1;
  r.to = kNocId;
  r.interval = 3;
  r.ids = {0, 1};
  r.values = {1.0, 2.0};
  net.send(r);
  EXPECT_THROW((void)noc.collect_volumes(4, net), ProtocolError);
}

class NocProtocolTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFlows = 4;
  static constexpr std::size_t kRows = 8;
  SimNetwork net_;
  ProjectionSource source_{ProjectionKind::kGaussian, 31};
  LocalMonitor monitor_a_{1, {0, 1}, 16, 0.05, kRows, source_};
  LocalMonitor monitor_b_{2, {2, 3}, 16, 0.05, kRows, source_};
  Noc noc_{kFlows, small_noc_config(kRows)};

  void feed_interval(std::int64_t t, const Vector& x) {
    monitor_a_.ingest_volume(0, x[0]);
    monitor_a_.ingest_volume(1, x[1]);
    monitor_b_.ingest_volume(2, x[2]);
    monitor_b_.ingest_volume(3, x[3]);
    monitor_a_.end_interval(t, net_);
    monitor_b_.end_interval(t, net_);
  }

  std::function<void()> pump() {
    return [this] {
      monitor_a_.handle_mail(net_);
      monitor_b_.handle_mail(net_);
    };
  }

  static Vector quiet_row(std::int64_t t) {
    Vector x(kFlows);
    for (std::size_t j = 0; j < kFlows; ++j) {
      x[j] = 1000.0 * static_cast<double>(j + 1) +
             25.0 * std::sin(static_cast<double>(t) * 0.4 +
                             static_cast<double>(j));
    }
    return x;
  }
};

TEST_F(NocProtocolTest, FirstDetectPullsSketchesOnce) {
  for (std::int64_t t = 0; t < 16; ++t) {
    feed_interval(t, quiet_row(t));
    const Vector x = noc_.collect_volumes(t, net_);
    if (t == 15) {
      const Detection det = noc_.detect(t, x, {1, 2}, net_, pump());
      EXPECT_TRUE(det.ready);
      EXPECT_TRUE(det.model_refreshed);
    }
  }
  EXPECT_EQ(noc_.sketch_pulls(), 1u);
  ASSERT_TRUE(noc_.model().has_value());
  EXPECT_EQ(noc_.model()->dimensions(), kFlows);
}

TEST_F(NocProtocolTest, QuietTrafficReusesStaleModel) {
  for (std::int64_t t = 0; t < 40; ++t) {
    feed_interval(t, quiet_row(t));
    const Vector x = noc_.collect_volumes(t, net_);
    if (t >= 15) {
      (void)noc_.detect(t, x, {1, 2}, net_, pump());
    }
  }
  // One initial pull plus at most a few suspicion-driven refreshes.
  EXPECT_LT(noc_.sketch_pulls(), 10u);
}

TEST_F(NocProtocolTest, SpikeForcesRefreshAndAlarm) {
  for (std::int64_t t = 0; t < 30; ++t) {
    Vector x = quiet_row(t);
    if (t == 29) {
      x[0] *= 8.0;
      x[2] *= 8.0;
    }
    feed_interval(t, x);
    const Vector assembled = noc_.collect_volumes(t, net_);
    if (t >= 15) {
      const Detection det = noc_.detect(t, assembled, {1, 2}, net_, pump());
      if (t == 29) {
        EXPECT_TRUE(det.model_refreshed);
        EXPECT_TRUE(det.alarm);
      }
    }
  }
  EXPECT_GE(noc_.alarms_sent(), 1u);
}

TEST(NocFailureInjection, MalformedSketchResponseRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(4));
  Message bad;
  bad.type = MessageType::kSketchResponse;
  bad.from = 1;
  bad.to = kNocId;
  bad.ids = {0, 1};
  bad.values = {1.0, 2.0, 3.0};  // wrong block size: needs 2 * (4 + 2)
  net.send(bad);
  EXPECT_THROW(noc.ingest_sketch_responses(net), ProtocolError);
}

TEST(NocFailureInjection, SketchForUnknownFlowRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message bad;
  bad.type = MessageType::kSketchResponse;
  bad.from = 1;
  bad.to = kNocId;
  bad.ids = {7};  // flow 7 does not exist in a 2-flow deployment
  bad.values = {0.0, 1.0, 0.5, 0.5};
  net.send(bad);
  EXPECT_THROW(noc.ingest_sketch_responses(net), ProtocolError);
}

TEST(NocFailureInjection, RefitBeforeAllSketchesRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message partial;
  partial.type = MessageType::kSketchResponse;
  partial.from = 1;
  partial.to = kNocId;
  partial.ids = {0};  // flow 1's sketch never arrives
  partial.values = {0.0, 4.0, 0.5, 0.5};
  net.send(partial);
  EXPECT_THROW(noc.ingest_sketch_responses(net), ProtocolError);
}

TEST(NocFailureInjection, WrongMessageTypeInSketchPhaseRejected) {
  SimNetwork net;
  Noc noc(2, small_noc_config(2));
  Message wrong;
  wrong.type = MessageType::kVolumeReport;
  wrong.from = 1;
  wrong.to = kNocId;
  wrong.ids = {0, 1};
  wrong.values = {1.0, 2.0};
  net.send(wrong);
  EXPECT_THROW(noc.ingest_sketch_responses(net), ProtocolError);
}

/// A sketch response for flows {0, 1} of a 2-flow, l = 2 NOC (window 16)
/// whose second block carries `count`, `mean` and `z`.
Message response_with(double count, double mean, double z) {
  Message msg;
  msg.type = MessageType::kSketchResponse;
  msg.from = 1;
  msg.to = kNocId;
  msg.ids = {0, 1};
  msg.values = {10.0, 4.0, 0.5, 0.5, mean, count, z, 0.25};
  return msg;
}

TEST(NocFailureInjection, SketchCountMustBeAnIntegerTheWindowHolds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double two_to_64 = 18446744073709551616.0;
  for (const double count :
       {std::nan(""), -1.0, -inf, inf, two_to_64, 1e300, 2.5, 17.0}) {
    SimNetwork net;
    Noc noc(2, small_noc_config(2));
    net.send(response_with(count, 1.0, 0.5));
    // Nothing is stored, not even the well-formed first block: the refit
    // still finds flow 0 missing.
    EXPECT_THROW(noc.ingest_sketch_response(net.drain(kNocId).at(0)),
                 ProtocolError)
        << count;
    EXPECT_THROW(noc.refit(), ProtocolError) << count;
  }
  // The bounds themselves are valid counts.
  for (const double count : {0.0, 16.0}) {
    Noc noc(2, small_noc_config(2));
    EXPECT_NO_THROW(
        noc.ingest_sketch_response(response_with(count, 1.0, 0.5)));
  }
}

TEST(NocFailureInjection, NonFiniteSketchValuesRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf}) {
    Noc mean_noc(2, small_noc_config(2));
    EXPECT_THROW(
        mean_noc.ingest_sketch_response(response_with(4.0, bad, 0.5)),
        ProtocolError);
    EXPECT_THROW(mean_noc.refit(), ProtocolError);
    Noc z_noc(2, small_noc_config(2));
    EXPECT_THROW(z_noc.ingest_sketch_response(response_with(4.0, 1.0, bad)),
                 ProtocolError);
    EXPECT_THROW(z_noc.refit(), ProtocolError);
  }
}

TEST(NocFailureInjection, NonFiniteOrNegativeVolumesRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool hosted : {false, true}) {
    for (const double bad : {std::nan(""), inf, -inf, -1.0}) {
      NocConfig config = small_noc_config(2);
      config.host_sketches = hosted;
      Noc noc(2, config);
      Message report;
      report.type = MessageType::kVolumeReport;
      report.from = 1;
      report.to = kNocId;
      report.interval = 3;
      report.ids = {0, 1};
      report.values = {5.0, bad};
      EXPECT_THROW((void)noc.assemble_volumes(3, {report}), ProtocolError)
          << bad;
      // No hosted sketch saw interval 3, so a clean report for it is taken.
      report.values = {5.0, 0.0};
      const Vector x = noc.assemble_volumes(3, {report});
      EXPECT_EQ(x[1], 0.0);
    }
  }
}

TEST_F(NocProtocolTest, EagerModePullsEveryInterval) {
  NocConfig eager = small_noc_config(kRows);
  eager.lazy = false;
  Noc noc(kFlows, eager);
  for (std::int64_t t = 0; t < 24; ++t) {
    feed_interval(t, quiet_row(t));
    const Vector x = noc.collect_volumes(t, net_);
    if (t >= 15) {
      (void)noc.detect(t, x, {1, 2}, net_, pump());
    }
  }
  EXPECT_EQ(noc.sketch_pulls(), 24u - 15u);
}

}  // namespace
}  // namespace spca
