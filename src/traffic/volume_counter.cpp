#include "traffic/volume_counter.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace spca {

VolumeCounter::VolumeCounter(std::uint32_t num_flows)
    : buckets_(num_flows, 0.0) {
  SPCA_EXPECTS(num_flows >= 1);
}

void VolumeCounter::record(FlowId flow, std::uint32_t size_bytes) {
  SPCA_EXPECTS(flow < buckets_.size());
  buckets_[flow] += static_cast<double>(size_bytes);
}

void VolumeCounter::record_bytes(FlowId flow, double bytes) {
  SPCA_EXPECTS(flow < buckets_.size());
  SPCA_EXPECTS(std::isfinite(bytes) && bytes >= 0.0);
  buckets_[flow] += bytes;
}

void VolumeCounter::record_packet(const Packet& packet,
                                  std::uint32_t num_routers) {
  record(od_flow_id(packet.origin, packet.destination, num_routers),
         packet.size_bytes);
}

Vector VolumeCounter::end_interval() {
  Vector x(std::vector<double>(buckets_.begin(), buckets_.end()));
  std::fill(buckets_.begin(), buckets_.end(), 0.0);
  ++intervals_;
  return x;
}

void VolumeCounter::advance_intervals(std::uint64_t n) {
  SPCA_EXPECTS(std::all_of(buckets_.begin(), buckets_.end(),
                           [](double b) { return b == 0.0; }));
  intervals_ += n;
}

double VolumeCounter::volume(FlowId flow) const {
  SPCA_EXPECTS(flow < buckets_.size());
  return buckets_[flow];
}

}  // namespace spca
