// RegionalNoc collection state machine (hier/regional_noc.hpp) driven over
// a SimNetwork, and the regional daemon's 'SPCR' identity/progress snapshot
// codec (hier/regional_daemon.hpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "dist/aggregate.hpp"
#include "dist/sim_network.hpp"
#include "hier/regional_daemon.hpp"
#include "hier/regional_noc.hpp"

namespace spca {
namespace {

constexpr std::size_t kRows = 4;

Message report(NodeId monitor, std::int64_t interval,
               NodeId to = region_node_id(0)) {
  Message msg;
  msg.type = MessageType::kVolumeReport;
  msg.from = monitor;
  msg.to = to;
  msg.interval = interval;
  msg.ids = {monitor * 10u};
  msg.values = {static_cast<double>(monitor)};
  return msg;
}

Message response(NodeId monitor, std::int64_t interval, NodeId to) {
  Message msg = report(monitor, interval, to);
  msg.type = MessageType::kSketchResponse;
  msg.values.assign(kRows + 2, static_cast<double>(monitor));
  return msg;
}

TEST(RegionalNoc, CollectsTheShardAndMergesOnceComplete) {
  SimNetwork sim;
  RegionalNoc region(0, {1, 2, 3}, kRows);
  EXPECT_EQ(region.id(), region_node_id(0));

  sim.send(report(2, 5));
  region.pump(sim);
  EXPECT_EQ(region.reports_ready(), std::nullopt);

  sim.send(report(1, 5));
  sim.send(report(3, 5));
  region.pump(sim);
  ASSERT_EQ(region.reports_ready(), std::optional<std::int64_t>(5));

  const Message merged = region.take_merged_reports(kNocId);
  EXPECT_EQ(merged.type, MessageType::kAggregate);
  EXPECT_EQ(merged.from, region.id());
  EXPECT_EQ(merged.interval, 5);
  const std::vector<std::uint32_t> expected_ids = {10, 20, 30};
  EXPECT_EQ(merged.ids, expected_ids);
  // Taking clears the store for the next interval.
  EXPECT_EQ(region.reports_ready(), std::nullopt);
  EXPECT_EQ(region.merges(), 1u);
}

TEST(RegionalNoc, MixedIntervalsAreNotReadyAndLastWins) {
  SimNetwork sim;
  RegionalNoc region(0, {1, 2}, kRows);

  // Monitor 1 already moved to interval 6 while monitor 2 is still at 5:
  // transient during the advance relay, so not ready.
  sim.send(report(1, 6));
  sim.send(report(2, 5));
  region.pump(sim);
  EXPECT_EQ(region.reports_ready(), std::nullopt);

  // A reconnecting monitor re-sends its current interval; last-wins brings
  // the shard back into agreement.
  sim.send(report(2, 6));
  region.pump(sim);
  EXPECT_EQ(region.reports_ready(), std::optional<std::int64_t>(6));
}

TEST(RegionalNoc, SketchPhaseRoundTrip) {
  SimNetwork sim;
  RegionalNoc region(1, {3, 4}, kRows);

  // Root request arrives, is queued, and fans out to the shard.
  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = kNocId;
  request.to = region.id();
  request.interval = 9;
  sim.send(request);
  region.pump(sim);
  ASSERT_EQ(region.take_sketch_request(), std::optional<std::int64_t>(9));
  EXPECT_EQ(region.take_sketch_request(), std::nullopt);

  region.forward_sketch_request(9, sim);
  for (const NodeId monitor : {3u, 4u}) {
    const std::vector<Message> mail = sim.drain(monitor);
    ASSERT_EQ(mail.size(), 1u);
    EXPECT_EQ(mail[0].type, MessageType::kSketchRequest);
    EXPECT_EQ(mail[0].from, region.id());
    EXPECT_EQ(mail[0].interval, 9);
  }

  sim.send(response(4, 9, region.id()));
  sim.send(response(3, 9, region.id()));
  region.pump(sim);
  ASSERT_EQ(region.responses_ready(), std::optional<std::int64_t>(9));
  const Message merged = region.take_merged_responses(kNocId);
  EXPECT_EQ(merged.values.size(), merged.ids.size() * (kRows + 2));
  EXPECT_TRUE(aggregate_shape_is(merged, MessageType::kSketchResponse,
                                 kRows));
}

TEST(RegionalNoc, RejectsForeignSendersAndMalformedShapes) {
  SimNetwork sim;
  RegionalNoc region(0, {1, 2}, kRows);

  sim.send(report(7, 0));  // not in the shard
  EXPECT_THROW(region.pump(sim), ProtocolError);

  Message bad = report(1, 0);
  bad.values.push_back(0.0);  // shape broken
  sim.send(bad);
  EXPECT_THROW(region.pump(sim), ProtocolError);

  Message agg = report(1, 0);
  agg.type = MessageType::kAggregate;  // a type the tier never receives
  sim.send(agg);
  EXPECT_THROW(region.pump(sim), ProtocolError);
}

TEST(RegionalNoc, RejectsDegenerateShards) {
  EXPECT_THROW(RegionalNoc(0, {}, kRows), ContractViolation);
  EXPECT_THROW(RegionalNoc(0, {1, 1}, kRows), ContractViolation);
  EXPECT_THROW(RegionalNoc(0, {kNocId, 1}, kRows), ContractViolation);
  EXPECT_THROW(RegionalNoc(0, {1, region_node_id(1)}, kRows),
               ContractViolation);
}

TEST(RegionSnapshot, RoundTripsIdentityAndProgress) {
  const std::vector<NodeId> shard = {4, 5, 6};
  const std::vector<std::byte> blob = encode_region_snapshot(3, 1, shard, 17);
  const RegionSnapshot snapshot = decode_region_snapshot(blob);
  EXPECT_EQ(snapshot.regions, 3u);
  EXPECT_EQ(snapshot.region, 1u);
  EXPECT_EQ(snapshot.monitors, shard);
  EXPECT_EQ(snapshot.next_interval, 17);
}

TEST(RegionSnapshot, RejectsCorruptBlobs) {
  std::vector<std::byte> blob = encode_region_snapshot(2, 0, {1, 2}, 3);

  // Truncated.
  std::vector<std::byte> truncated(blob.begin(), blob.end() - 1);
  EXPECT_THROW((void)decode_region_snapshot(truncated), ProtocolError);

  // Trailing garbage.
  std::vector<std::byte> padded = blob;
  padded.push_back(std::byte{0x5A});
  EXPECT_THROW((void)decode_region_snapshot(padded), ProtocolError);

  // Bad magic.
  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] ^= std::byte{0xFF};
  EXPECT_THROW((void)decode_region_snapshot(bad_magic), ProtocolError);

  // Unknown version.
  std::vector<std::byte> bad_version = blob;
  bad_version[4] ^= std::byte{0xFF};
  EXPECT_THROW((void)decode_region_snapshot(bad_version), ProtocolError);

  // A monitor count (u32 at byte 16) the blob cannot hold is refused before
  // it reaches an allocation.
  std::vector<std::byte> huge_count = blob;
  for (std::size_t i = 16; i < 20; ++i) huge_count[i] = std::byte{0xFF};
  EXPECT_THROW((void)decode_region_snapshot(huge_count), ProtocolError);

  EXPECT_THROW((void)decode_region_snapshot({}), ProtocolError);
}

}  // namespace
}  // namespace spca
