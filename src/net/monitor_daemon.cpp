#include "net/monitor_daemon.hpp"

#include <chrono>
#include <sstream>

#include "common/checkpoint_store.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/local_monitor.hpp"
#include "ingest/interval_source.hpp"
#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"
#include "obs/status_server.hpp"

namespace spca {

namespace {

constexpr std::chrono::milliseconds kWaitSlice{100};

std::string monitor_store_name(NodeId id) {
  return "monitor" + std::to_string(id);
}

}  // namespace

MonitorDaemon::MonitorDaemon(MonitorDaemonConfig config)
    : config_(std::move(config)) {}

MonitorDaemonResult MonitorDaemon::run() {
  const auto recovery_begin = std::chrono::steady_clock::now();

  // Live status endpoint, up before the (possibly long) warm rebuild so an
  // operator can watch recovery progress; polled from every wait slice of
  // the protocol loop below.
  std::atomic<std::int64_t> current_interval{-1};
  std::atomic<bool> restored_flag{false};
  std::optional<StatusServer> status;
  if (config_.status_port >= 0) {
    StatusServerConfig scfg;
    scfg.host = config_.status_host;
    scfg.port = config_.status_port;
    scfg.healthy = [this] { return !stop_.load(std::memory_order_relaxed); };
    scfg.health_body = [this, &current_interval, &restored_flag] {
      std::ostringstream oss;
      oss << "{\"healthy\":"
          << (stop_.load(std::memory_order_relaxed) ? "false" : "true")
          << ",\"role\":\"monitor\",\"id\":"
          << static_cast<int>(config_.monitor_id) << ",\"interval\":"
          << current_interval.load(std::memory_order_relaxed)
          << ",\"restored_from_checkpoint\":"
          << (restored_flag.load(std::memory_order_relaxed) ? "true" : "false")
          << "}\n";
      return oss.str();
    };
    status.emplace(std::move(scfg));
    if (config_.on_status_port) config_.on_status_port(status->port());
    log_info("monitord ", config_.monitor_id, ": status endpoint on ",
             config_.status_host, ":", status->port());
  }
  const auto poll_telemetry = [&] {
    if (status) status->poll();
    (void)FlightRecorder::global().poll_dump_request();
  };

  const NetScenario scenario = build_scenario(config_.scenario);
  const std::size_t m = scenario.trace.num_flows();
  const SketchDetectorConfig& det = scenario.detector;
  SPCA_EXPECTS(config_.monitor_id >= 1 &&
               config_.monitor_id <= config_.scenario.monitors);
  SPCA_EXPECTS(config_.first_interval >= kAutoInterval);
  SPCA_EXPECTS(config_.checkpoint_every >= 0);

  const ProjectionSource source =
      det.projection == ProjectionKind::kVerySparse
          ? ProjectionSource::very_sparse(det.seed, det.window)
          : ProjectionSource(det.projection, det.seed, det.sparsity);
  const std::vector<FlowId> flows =
      scenario_flows_of(m, config_.scenario.monitors, config_.monitor_id);

  const auto end = config_.last_interval >= 0
                       ? config_.last_interval
                       : static_cast<std::int64_t>(config_.scenario.intervals);

  std::optional<CheckpointStore> store;
  if (!config_.checkpoint_dir.empty()) {
    store.emplace(config_.checkpoint_dir,
                  monitor_store_name(config_.monitor_id));
  }

  // Pick the sketch state and the interval at which to join the protocol.
  // Preference order: restore a snapshot (and absorb only the tail up to
  // the join interval), else absorb the full prefix from scratch.
  MonitorDaemonResult result;
  std::optional<LocalMonitor> monitor;
  std::int64_t join =
      config_.first_interval == kAutoInterval ? 0 : config_.first_interval;
  std::int64_t absorb_from = 0;
  if (store) {
    if (auto snap = store->load_latest()) {
      const auto seq = static_cast<std::int64_t>(snap->seq);
      if (config_.first_interval != kAutoInterval &&
          seq > config_.first_interval) {
        log_warn("monitord ", config_.monitor_id, ": snapshot ", snap->path,
                 " is ahead of --first-interval ", config_.first_interval,
                 "; rebuilding from scratch");
      } else {
        try {
          LocalMonitor restored = LocalMonitor::restore_state(snap->payload);
          if (restored.id() != config_.monitor_id ||
              restored.flows() != flows) {
            throw ProtocolError(
                "snapshot belongs to a different monitor or deployment");
          }
          if (restored.first_line_enabled() !=
              (config_.scenario.fusion != "off")) {
            // A fusion-off snapshot has no scorer baselines; restoring it
            // into a fusion deployment (or vice versa) would fork the score
            // trajectory. Rebuild from scratch instead.
            throw ProtocolError(
                "snapshot fusion state differs from the configured scenario");
          }
          monitor.emplace(std::move(restored));
          if (config_.first_interval == kAutoInterval) join = seq;
          absorb_from = seq;
          result.restored_from_checkpoint = true;
          restored_flag.store(true, std::memory_order_relaxed);
          log_info("monitord ", config_.monitor_id, ": restored interval ",
                   seq, " from ", snap->path);
        } catch (const Error& e) {
          log_warn("monitord ", config_.monitor_id, ": ignoring snapshot ",
                   snap->path, ": ", e.what());
        }
      }
    }
  }
  SPCA_EXPECTS(join >= 0 && join <= end);
  if (!monitor) {
    monitor.emplace(config_.monitor_id, flows, det.window, det.epsilon,
                    det.sketch_rows, source);
    // Ensemble plane: under any fusion rule the monitor scores its owned
    // volumes each interval and ships a kScoreReport with the volume
    // report. The warm-rebuild replay below advances the scorer too (it
    // rides flush_interval), so a restarted monitor scores bit-identically.
    if (config_.scenario.fusion != "off") monitor->enable_first_line();
  }
  // Deployment topology, not checkpointed state: a restored monitor must be
  // re-pointed at its upstream (regional NOC in the hierarchical tree).
  monitor->set_upstream(config_.upstream_id);

  // Volume source: the scenario's synthetic trace, or a streamed record
  // file when --ingest-records is set. Both the warm rebuild and the live
  // loop walk intervals strictly in order, which is all the streaming
  // source supports; intervals skipped by a checkpoint restore are drained
  // and discarded.
  std::optional<RecordIntervalSource> record_source;
  std::vector<double> record_row;
  std::int64_t streamed_to = -1;
  if (!config_.ingest_records.empty()) {
    record_source.emplace(config_.ingest_records);
    if (record_source->header().num_flows != m ||
        record_source->header().num_intervals !=
            config_.scenario.intervals) {
      throw InputError("monitord: record file '" + config_.ingest_records +
                       "' does not match the scenario shape");
    }
  }
  const auto volume_row = [&](std::int64_t t) -> const double* {
    if (!record_source) return nullptr;
    std::int64_t got = 0;
    while (streamed_to < t) {
      if (!record_source->next_interval(record_row, got)) {
        throw InputError("monitord: record stream ended before interval " +
                         std::to_string(t));
      }
      streamed_to = got;
    }
    return record_row.data();
  };

  // Warm rebuild: replay the intervals the NOC has already accounted for,
  // without sending anything. After this the sketch state is exactly what a
  // never-restarted monitor would hold entering `join`.
  // (Not span-instrumented: a never-restarted run has no rebuild, and the
  // sim and TCP span trees must stay structurally identical.)
  for (std::int64_t t = absorb_from; t < join; ++t) {
    poll_telemetry();
    const double* row = volume_row(t);
    for (const FlowId flow : flows) {
      monitor->ingest_volume(
          flow, row != nullptr ? row[flow]
                               : scenario.trace.volumes()(
                                     static_cast<std::size_t>(t), flow));
    }
    monitor->absorb_interval(t);
    ++result.intervals_absorbed;
  }
  result.start_interval = join;
  if (result.restored_from_checkpoint || result.intervals_absorbed > 0) {
    const std::chrono::duration<double> recovery =
        std::chrono::steady_clock::now() - recovery_begin;
    MetricsRegistry::global()
        .histogram("spca.fault.recovery_seconds")
        .record(recovery.count());
  }

  TcpTransportConfig tcp;
  tcp.node_id = config_.monitor_id;
  tcp.peers.push_back(
      {config_.upstream_id, config_.noc_host, config_.noc_port});
  tcp.retry = config_.retry;
  tcp.io_timeout = config_.io_timeout;
  TcpTransport transport(tcp);
  transport.start();
  std::unique_ptr<Transport> wrapped;
  if (config_.wrap_transport) wrapped = config_.wrap_transport(transport);
  Transport& bus = wrapped ? *wrapped : static_cast<Transport&>(transport);
  log_info("monitord ", config_.monitor_id, ": connected to ",
           config_.noc_host, ":", config_.noc_port, ", intervals [", join,
           ", ", end, ")");

  // The last snapshot-consistent state: `consistent_blob` is the sketch
  // state entering interval `consistent_seq`, captured only at lock-step
  // quiet points (right after the NOC advanced past an interval). A stop
  // mid-interval persists this, never a state the NOC has not accounted.
  std::vector<std::byte> consistent_blob;
  std::int64_t consistent_seq = join;
  if (store) consistent_blob = monitor->save_state();

  for (std::int64_t t = join; t < end; ++t) {
    if (stop_.load(std::memory_order_relaxed)) break;
    current_interval.store(t, std::memory_order_relaxed);
    const double* row = volume_row(t);
    {
      const ScopedSpan span("monitor" + std::to_string(config_.monitor_id),
                            kStageIngestAbsorb, t);
      for (const FlowId flow : flows) {
        monitor->ingest_volume(
            flow, row != nullptr ? row[flow]
                                 : scenario.trace.volumes()(
                                       static_cast<std::size_t>(t), flow));
      }
    }
    // A NOC that went away after advancing us (a restart) can fail the
    // report's send even after the transport's one redial. The report is
    // then re-sent below once the link is back, instead of ending the
    // monitor and, through it, the deployment.
    bool resend = false;
    try {
      monitor->end_interval(t, bus);
    } catch (const TransportError& e) {
      log_warn("monitord ", config_.monitor_id, ": report for interval ", t,
               " not delivered (", e.what(), "), re-sending on reconnect");
      resend = true;
    }
    ++result.intervals_reported;
    std::uint64_t seen_reconnects = transport.reconnects();

    // Serve sketch pulls until the NOC finishes interval t. Requests for t
    // precede advance(t) on the connection (TCP preserves the NOC's send
    // order), so by the time we move on every pull has been answered.
    bool advanced = false;
    auto waited = std::chrono::milliseconds(0);
    while (!advanced && !stop_.load(std::memory_order_relaxed)) {
      for (const Message& msg : bus.drain(config_.monitor_id)) {
        monitor->handle_request(msg, bus);
      }
      while (auto control = transport.poll_control()) {
        if (control->type != FrameType::kAdvance) continue;
        if (decode_interval_payload(control->payload) >= t) advanced = true;
      }
      if (advanced) break;
      if (!transport.wait_for_activity(kWaitSlice)) {
        waited += kWaitSlice;
        if (waited >= config_.io_timeout) {
          throw TransportError("monitord: no advance from the NOC within "
                               "the I/O timeout");
        }
        // A NOC that died after our report was sent never saw it; once the
        // link is back (a restarted NOC daemon on the same endpoint), the
        // report must go out again or neither side can make progress. The
        // NOC deduplicates per-monitor reports, so the retry is safe even
        // if the original copy also made it through.
        try {
          transport.ensure_connected(config_.upstream_id);
          const std::uint64_t rc = transport.reconnects();
          if (resend || rc != seen_reconnects) {
            seen_reconnects = rc;
            monitor->resend_report(bus);
            resend = false;
            log_info("monitord ", config_.monitor_id,
                     ": NOC link re-established, re-sent interval ", t);
          }
        } catch (const TransportError&) {
          // NOC still restarting; the io_timeout above bounds the retries.
        }
      }
      poll_telemetry();
    }
    if (!advanced) break;
    if (config_.after_advance) config_.after_advance(t, transport);
    FlightRecorder::global().capture_metrics(
        "monitor" + std::to_string(config_.monitor_id) + "_interval", t);
    if (store) {
      consistent_blob = monitor->save_state();
      consistent_seq = t + 1;
      if (config_.checkpoint_every > 0 &&
          (t + 1) % config_.checkpoint_every == 0) {
        store->write(static_cast<std::uint64_t>(consistent_seq),
                     consistent_blob);
      }
    }
  }

  if (store && config_.final_checkpoint) {
    result.final_checkpoint_path = store->write(
        static_cast<std::uint64_t>(consistent_seq), consistent_blob);
    log_info("monitord ", config_.monitor_id, ": final checkpoint (interval ",
             consistent_seq, ") at ", result.final_checkpoint_path);
  }

  result.reconnects = transport.reconnects();
  result.stats = transport.stats();
  transport.stop();
  log_info("monitord ", config_.monitor_id, ": done after ",
           result.intervals_reported, " intervals (", result.reconnects,
           " reconnects)");
  return result;
}

}  // namespace spca
