#include "hier/regional_daemon.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "common/checkpoint_store.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "hier/regional_noc.hpp"
#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/status_server.hpp"

namespace spca {

namespace {

constexpr std::chrono::milliseconds kWaitSlice{100};

constexpr std::uint32_t kRegionSnapshotMagic = 0x53504352;  // 'SPCR'
constexpr std::uint32_t kRegionSnapshotVersion = 1;

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void put_i64(std::vector<std::byte>& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((u >> (8 * i)) & 0xff));
  }
}

struct Reader {
  const std::vector<std::byte>& blob;
  std::size_t pos = 0;
  std::uint32_t u32() {
    if (pos + 4 > blob.size()) {
      throw ProtocolError("region snapshot: truncated");
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(blob[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::int64_t i64() {
    if (pos + 8 > blob.size()) {
      throw ProtocolError("region snapshot: truncated");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(blob[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return static_cast<std::int64_t>(v);
  }
};

}  // namespace

std::vector<std::byte> encode_region_snapshot(
    std::size_t regions, std::size_t region,
    const std::vector<NodeId>& monitors, std::int64_t next_interval) {
  std::vector<std::byte> out;
  put_u32(out, kRegionSnapshotMagic);
  put_u32(out, kRegionSnapshotVersion);
  put_u32(out, static_cast<std::uint32_t>(regions));
  put_u32(out, static_cast<std::uint32_t>(region));
  put_u32(out, static_cast<std::uint32_t>(monitors.size()));
  for (const NodeId id : monitors) put_u32(out, id);
  put_i64(out, next_interval);
  return out;
}

RegionSnapshot decode_region_snapshot(const std::vector<std::byte>& blob) {
  Reader r{blob};
  if (r.u32() != kRegionSnapshotMagic) {
    throw ProtocolError("region snapshot: bad magic");
  }
  if (r.u32() != kRegionSnapshotVersion) {
    throw ProtocolError("region snapshot: unsupported version");
  }
  RegionSnapshot snap;
  snap.regions = r.u32();
  snap.region = r.u32();
  const std::uint32_t count = r.u32();
  // Bound the count by the bytes left before it reaches an allocation.
  if (count > (blob.size() - r.pos) / sizeof(std::uint32_t)) {
    throw ProtocolError("region snapshot: monitor count exceeds blob");
  }
  snap.monitors.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) snap.monitors.push_back(r.u32());
  snap.next_interval = r.i64();
  if (r.pos != blob.size()) {
    throw ProtocolError("region snapshot: trailing bytes");
  }
  return snap;
}

namespace {

TcpTransportConfig region_tcp_config(const RegionalDaemonConfig& config) {
  TcpTransportConfig tcp;
  tcp.node_id = region_node_id(config.region);
  tcp.listen_host = config.listen_host;
  tcp.listen_port = config.listen_port;
  tcp.peers.push_back({kNocId, config.root_host, config.root_port});
  tcp.retry = config.retry;
  tcp.io_timeout = config.io_timeout;
  return tcp;
}

}  // namespace

RegionalDaemon::RegionalDaemon(RegionalDaemonConfig config)
    : config_(std::move(config)), transport_(region_tcp_config(config_)) {}

RegionalDaemon::~RegionalDaemon() { transport_.stop(); }

void RegionalDaemon::start() {
  SPCA_EXPECTS(!started_);
  SPCA_EXPECTS(config_.region < config_.regions);
  SPCA_EXPECTS(config_.regions >= 1 &&
               config_.regions <= config_.scenario.monitors);
  started_ = true;
  transport_.start();
  log_info("regiond ", config_.region, ": listening on ", config_.listen_host,
           ":", bound_port(), ", root at ", config_.root_host, ":",
           config_.root_port);
}

std::uint16_t RegionalDaemon::bound_port() const noexcept {
  return transport_.listen_port();
}

RegionalDaemonResult RegionalDaemon::run() {
  SPCA_EXPECTS(started_);
  SPCA_EXPECTS(config_.checkpoint_every >= 0);
  // However the loop ends, refuse new dials at once rather than when the
  // daemon is destroyed: a monitor redialling across a region restart must
  // reach the next incarnation, not this one.
  struct StopAcceptingOnExit {
    TcpTransport& transport;
    ~StopAcceptingOnExit() { transport.stop_accepting(); }
  } const stop_accepting_on_exit{transport_};
  const std::vector<NodeId> shard = region_monitor_ids(
      config_.scenario.monitors, config_.regions, config_.region);
  RegionalNoc region(config_.region, shard, config_.scenario.sketch_rows);

  std::optional<CheckpointStore> store;
  if (!config_.checkpoint_dir.empty()) {
    store.emplace(config_.checkpoint_dir,
                  "region" + std::to_string(config_.region));
  }

  RegionalDaemonResult result;
  std::int64_t t = 0;  // next interval whose advance we have not relayed
  if (store) {
    if (auto snap = store->load_latest()) {
      try {
        const RegionSnapshot decoded = decode_region_snapshot(snap->payload);
        if (decoded.regions != config_.regions ||
            decoded.region != config_.region || decoded.monitors != shard) {
          throw ProtocolError("snapshot belongs to a different hierarchy");
        }
        t = decoded.next_interval;
        result.restored_from_checkpoint = true;
        log_info("regiond ", config_.region, ": restored interval ", t,
                 " from ", snap->path);
      } catch (const Error& e) {
        log_warn("regiond ", config_.region, ": ignoring snapshot ",
                 snap->path, ": ", e.what());
      }
    }
  }

  std::unique_ptr<Transport> wrapped;
  if (config_.wrap_transport) wrapped = config_.wrap_transport(transport_);
  Transport& bus = wrapped ? *wrapped : static_cast<Transport&>(transport_);

  // Live status endpoint, polled from this loop's wait slices.
  std::atomic<std::int64_t> current_interval{t};
  std::optional<StatusServer> status;
  if (config_.status_port >= 0) {
    StatusServerConfig scfg;
    scfg.host = config_.status_host;
    scfg.port = config_.status_port;
    scfg.healthy = [this] { return !stop_.load(std::memory_order_relaxed); };
    scfg.health_body = [this, &current_interval, &result] {
      std::ostringstream oss;
      oss << "{\"healthy\":"
          << (stop_.load(std::memory_order_relaxed) ? "false" : "true")
          << ",\"role\":\"region\",\"region\":" << config_.region
          << ",\"monitors\":" << region_monitor_ids(config_.scenario.monitors,
                                                    config_.regions,
                                                    config_.region)
                                     .size()
          << ",\"interval\":"
          << current_interval.load(std::memory_order_relaxed)
          << ",\"reconnects\":" << transport_.reconnects()
          << ",\"restored_from_checkpoint\":"
          << (result.restored_from_checkpoint ? "true" : "false") << "}\n";
      return oss.str();
    };
    status.emplace(std::move(scfg));
    if (config_.on_status_port) config_.on_status_port(status->port());
    log_info("regiond ", config_.region, ": status endpoint on ",
             config_.status_host, ":", status->port());
  }
  const auto poll_telemetry = [&] {
    if (status) status->poll();
    (void)FlightRecorder::global().poll_dump_request();
  };

  const auto intervals = static_cast<std::int64_t>(config_.scenario.intervals);
  const std::int64_t end = config_.last_interval >= 0
                               ? std::min(intervals, config_.last_interval)
                               : intervals;
  SPCA_EXPECTS(t <= intervals);
  const auto checkpoint = [&](bool force) {
    if (!store) return;
    if (!force && (config_.checkpoint_every <= 0 ||
                   t % config_.checkpoint_every != 0)) {
      return;
    }
    store->write(static_cast<std::uint64_t>(t),
                 encode_region_snapshot(config_.regions, config_.region,
                                        shard, t));
  };

  // Event-driven relay loop. Each pass drains whatever arrived and acts on
  // it; the deadline clock resets on any progress. Aggregates for intervals
  // the root has already seen (stale duplicates after a monitor reconnect)
  // are merged and dropped, never re-sent.
  std::int64_t reports_forwarded_through = t - 1;
  std::int64_t scores_forwarded_through = t - 1;
  auto waited = std::chrono::milliseconds(0);
  while (t < end && !stop_.load(std::memory_order_relaxed)) {
    current_interval.store(t, std::memory_order_relaxed);
    poll_telemetry();
    bool progressed = false;

    region.pump(bus);

    // Advances end intervals; relay them first so the shard never stalls.
    while (auto control = transport_.poll_control()) {
      if (control->type != FrameType::kAdvance) continue;
      const std::int64_t advanced = decode_interval_payload(control->payload);
      for (const NodeId monitor : region.monitors()) {
        transport_.send_control(monitor, FrameType::kAdvance,
                                control->payload);
      }
      progressed = true;
      if (advanced >= t) {
        t = advanced + 1;
        current_interval.store(t, std::memory_order_relaxed);
        FlightRecorder::global().capture_metrics(
            "region" + std::to_string(config_.region) + "_interval",
            advanced);
        checkpoint(/*force=*/false);
      }
    }

    while (auto request = region.take_sketch_request()) {
      region.forward_sketch_request(*request, bus);
      progressed = true;
    }

    if (region.responses_ready().has_value()) {
      bus.send(region.take_merged_responses(kNocId));
      progressed = true;
    }

    if (const auto ready = region.reports_ready()) {
      Message merged = region.take_merged_reports(kNocId);
      if (*ready > reports_forwarded_through) {
        reports_forwarded_through = *ready;
        bus.send(merged);
      }
      progressed = true;
    }

    if (const auto ready = region.scores_ready()) {
      Message merged = region.take_merged_scores(kNocId);
      if (*ready > scores_forwarded_through) {
        scores_forwarded_through = *ready;
        bus.send(merged);
      }
      progressed = true;
    }

    if (progressed) {
      waited = std::chrono::milliseconds(0);
      continue;
    }
    if (!transport_.wait_for_activity(kWaitSlice)) {
      waited += kWaitSlice;
      if (waited >= config_.interval_deadline) {
        throw TransportError("regiond: no progress within the deadline");
      }
    }
  }

  if (config_.final_checkpoint) checkpoint(/*force=*/true);
  result.next_interval = t;
  result.merges = region.merges();
  result.reconnects = transport_.reconnects();
  result.stats = transport_.stats();
  log_info("regiond ", config_.region, ": finished through interval ", t,
           ", ", region.merges(), " merges, ", transport_.reconnects(),
           " reconnects");
  return result;
}

}  // namespace spca
