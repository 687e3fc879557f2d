#include "traffic/volume_counter.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/contracts.hpp"

namespace spca {
namespace {

TEST(VolumeCounter, AccumulatesPerFlow) {
  VolumeCounter counter(3);
  counter.record(0, 100);
  counter.record(0, 50);
  counter.record(2, 7);
  EXPECT_DOUBLE_EQ(counter.volume(0), 150.0);
  EXPECT_DOUBLE_EQ(counter.volume(1), 0.0);
  EXPECT_DOUBLE_EQ(counter.volume(2), 7.0);
}

TEST(VolumeCounter, EndIntervalFlushesAndResets) {
  VolumeCounter counter(2);
  counter.record(1, 10);
  const Vector x = counter.end_interval();
  EXPECT_DOUBLE_EQ(x[1], 10.0);
  EXPECT_DOUBLE_EQ(counter.volume(1), 0.0);
  EXPECT_EQ(counter.intervals_completed(), 1u);
  const Vector next = counter.end_interval();
  EXPECT_DOUBLE_EQ(next[1], 0.0);
  EXPECT_EQ(counter.intervals_completed(), 2u);
}

TEST(VolumeCounter, RecordBytesPreservesFractions) {
  VolumeCounter counter(1);
  counter.record_bytes(0, 1.25);
  counter.record_bytes(0, 2.5);
  EXPECT_DOUBLE_EQ(counter.volume(0), 3.75);
}

TEST(VolumeCounter, RecordPacketAggregatesToOdFlow) {
  VolumeCounter counter(9);  // 3x3 routers
  const Packet p{1, 2, 1500, 0};
  counter.record_packet(p, 3);
  EXPECT_DOUBLE_EQ(counter.volume(od_flow_id(1, 2, 3)), 1500.0);
}

TEST(VolumeCounter, FlowUpdateOverloadMatchesRecord) {
  VolumeCounter counter(2);
  counter.record(FlowUpdate{1, 64});
  EXPECT_DOUBLE_EQ(counter.volume(1), 64.0);
}

TEST(VolumeCounter, BoundsAndArgumentChecks) {
  VolumeCounter counter(2);
  EXPECT_THROW(counter.record(2, 1), ContractViolation);
  EXPECT_THROW(counter.record_bytes(0, -1.0), ContractViolation);
  EXPECT_THROW(counter.record_bytes(0, std::numeric_limits<double>::infinity()),
               ContractViolation);
  EXPECT_THROW(
      counter.record_bytes(0, std::numeric_limits<double>::quiet_NaN()),
      ContractViolation);
  EXPECT_THROW((void)counter.volume(5), ContractViolation);
  EXPECT_THROW(VolumeCounter(0), ContractViolation);
}

}  // namespace
}  // namespace spca
