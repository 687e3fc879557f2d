#include "dist/local_monitor.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "dist/sim_network.hpp"
#include "sketch/flow_sketch.hpp"

namespace spca {
namespace {

ProjectionSource source() {
  return ProjectionSource(ProjectionKind::kGaussian, 5);
}

TEST(LocalMonitor, VolumeReportCarriesOwnedFlows) {
  SimNetwork net;
  LocalMonitor monitor(1, {3, 7}, 32, 0.1, 4, source());
  monitor.record(3, 100);
  monitor.record(3, 50);
  monitor.record(7, 42);
  monitor.end_interval(0, net);

  const auto mail = net.drain(kNocId);
  ASSERT_EQ(mail.size(), 1u);
  const Message& report = mail[0];
  EXPECT_EQ(report.type, MessageType::kVolumeReport);
  EXPECT_EQ(report.from, 1u);
  EXPECT_EQ(report.ids, (std::vector<std::uint32_t>{3, 7}));
  EXPECT_DOUBLE_EQ(report.values[0], 150.0);
  EXPECT_DOUBLE_EQ(report.values[1], 42.0);
}

TEST(LocalMonitor, CounterResetsBetweenIntervals) {
  SimNetwork net;
  LocalMonitor monitor(1, {0}, 32, 0.1, 4, source());
  monitor.record(0, 10);
  monitor.end_interval(0, net);
  monitor.end_interval(1, net);
  const auto mail = net.drain(kNocId);
  ASSERT_EQ(mail.size(), 2u);
  EXPECT_DOUBLE_EQ(mail[1].values[0], 0.0);
}

TEST(LocalMonitor, SketchResponseMatchesStandaloneFlowSketch) {
  SimNetwork net;
  const std::size_t l = 6;
  LocalMonitor monitor(2, {5}, 64, 0.05, l, source());
  ProjectionWindow window(source(), l, 64, 0.05);
  FlowSketch expected(window);
  for (std::int64_t t = 0; t < 40; ++t) {
    const double volume = 1000.0 + 13.0 * static_cast<double>(t % 7);
    monitor.ingest_volume(5, volume);
    monitor.end_interval(t, net);
    window.advance(t);
    expected.add(t, volume, window);
  }
  (void)net.drain(kNocId);  // discard volume reports

  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = kNocId;
  request.to = 2;
  request.interval = 39;
  net.send(request);
  monitor.handle_mail(net);

  const auto mail = net.drain(kNocId);
  ASSERT_EQ(mail.size(), 1u);
  const Message& response = mail[0];
  EXPECT_EQ(response.type, MessageType::kSketchResponse);
  ASSERT_EQ(response.values.size(), l + 2);
  EXPECT_DOUBLE_EQ(response.values[0], expected.mean());
  EXPECT_DOUBLE_EQ(response.values[1],
                   static_cast<double>(expected.count()));
  const Vector z = expected.sketch(window);
  for (std::size_t k = 0; k < l; ++k) {
    EXPECT_DOUBLE_EQ(response.values[2 + k], z[k]);
  }
}

TEST(LocalMonitor, RejectsUnownedFlows) {
  LocalMonitor monitor(1, {2, 4}, 32, 0.1, 2, source());
  EXPECT_THROW(monitor.record(3, 10), ContractViolation);
  EXPECT_THROW(monitor.ingest_volume(0, 5.0), ContractViolation);
}

TEST(LocalMonitor, RejectsUnexpectedMessageTypes) {
  SimNetwork net;
  LocalMonitor monitor(1, {0}, 32, 0.1, 2, source());
  Message bogus;
  bogus.type = MessageType::kVolumeReport;
  bogus.from = kNocId;
  bogus.to = 1;
  net.send(bogus);
  EXPECT_THROW(monitor.handle_mail(net), ProtocolError);
}

TEST(LocalMonitor, CannotUseNocId) {
  EXPECT_THROW(LocalMonitor(kNocId, {0}, 32, 0.1, 2, source()),
               ContractViolation);
}

TEST(LocalMonitor, MemoryGrowsWithSketches) {
  SimNetwork net;
  LocalMonitor monitor(1, {0, 1, 2}, 64, 0.1, 8, source());
  const std::size_t before = monitor.memory_bytes();
  for (std::int64_t t = 0; t < 32; ++t) {
    monitor.ingest_volume(0, 100.0 + static_cast<double>(t));
    monitor.ingest_volume(1, 50.0);
    monitor.ingest_volume(2, 10.0 * static_cast<double>(t % 3));
    monitor.end_interval(t, net);
  }
  EXPECT_GT(monitor.memory_bytes(), before);
}

}  // namespace
}  // namespace spca
