#include "net/noc_daemon.hpp"

#include <map>
#include <sstream>

#include "common/checkpoint_store.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "detect/fusion.hpp"
#include "dist/aggregate.hpp"
#include "dist/noc.hpp"
#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/status_server.hpp"

namespace spca {

namespace {

constexpr std::chrono::milliseconds kWaitSlice{100};

TcpTransportConfig noc_tcp_config(const NocDaemonConfig& config) {
  TcpTransportConfig tcp;
  tcp.node_id = kNocId;
  tcp.listen_host = config.listen_host;
  tcp.listen_port = config.listen_port;
  tcp.io_timeout = config.io_timeout;
  return tcp;
}

}  // namespace

NocDaemon::NocDaemon(NocDaemonConfig config)
    : config_(std::move(config)), transport_(noc_tcp_config(config_)) {}

NocDaemon::~NocDaemon() { transport_.stop(); }

void NocDaemon::start() {
  SPCA_EXPECTS(!started_);
  started_ = true;
  transport_.start();
  log_info("nocd: listening on ", config_.listen_host, ":", bound_port());
}

std::uint16_t NocDaemon::bound_port() const noexcept {
  return transport_.listen_port();
}

std::uint64_t NocDaemon::reconnects() const noexcept {
  return transport_.reconnects();
}

ScenarioRun NocDaemon::run() {
  SPCA_EXPECTS(started_);
  SPCA_EXPECTS(config_.checkpoint_every >= 0);
  // However the loop ends, refuse new dials at once rather than when the
  // daemon is destroyed: a monitor redialling across a NOC restart must
  // reach the next incarnation, not this one.
  struct StopAcceptingOnExit {
    TcpTransport& transport;
    ~StopAcceptingOnExit() { transport.stop_accepting(); }
  } const stop_accepting_on_exit{transport_};
  const NetScenario scenario = build_scenario(config_.scenario);
  const std::size_t num_monitors = config_.scenario.monitors;
  const std::vector<NodeId> monitor_ids = scenario_monitor_ids(num_monitors);
  // Hierarchical mode: the root's direct children are regional NOCs, which
  // deliver each phase as one shape-tagged kAggregate per region and relay
  // kAdvance down to their shards. The unwrap feeds the exact flat-mode
  // code path, so the trajectory is bit-identical by construction.
  const bool hier = config_.regions > 0;
  if (hier) SPCA_EXPECTS(config_.regions <= num_monitors);
  const std::vector<NodeId> children =
      hier ? region_node_ids(config_.regions) : monitor_ids;
  const std::size_t num_children = children.size();
  const std::size_t rows = config_.scenario.sketch_rows;
  // Ensemble plane: when fusion is on, every child also ships first-line
  // scores each interval (kScoreReport flat, score-shaped kAggregate hier)
  // and the root fuses them with the sketch-PCA verdict.
  std::optional<FusionEngine> fusion;
  if (config_.scenario.fusion != "off") {
    FusionConfig fusion_config;
    fusion_config.rule = parse_fusion_rule(config_.scenario.fusion);
    fusion.emplace(fusion_config);
  }

  std::optional<CheckpointStore> store;
  if (!config_.checkpoint_dir.empty()) {
    store.emplace(config_.checkpoint_dir, "noc");
  }

  std::optional<Noc> noc;
  std::int64_t start = 0;
  if (store) {
    if (auto snap = store->load_latest()) {
      try {
        // The expected-backend check rejects a snapshot whose model backend
        // differs from the configured one: backend state (the warm basis) is
        // not interchangeable, and silently refitting cold would break the
        // bit-identical-restore guarantee.
        Noc restored = Noc::restore_state(
            snap->payload,
            parse_model_backend(config_.scenario.model_backend));
        if (restored.num_flows() != scenario.trace.num_flows()) {
          throw ProtocolError("snapshot belongs to a different deployment");
        }
        noc.emplace(std::move(restored));
        start = static_cast<std::int64_t>(snap->seq);
        restored_.store(true, std::memory_order_relaxed);
        log_info("nocd: restored interval ", start, " from ", snap->path);
      } catch (const Error& e) {
        log_warn("nocd: ignoring snapshot ", snap->path, ": ", e.what());
      }
    }
  }
  if (!noc) {
    noc.emplace(scenario.trace.num_flows(),
                noc_config_from(scenario.detector, /*host_sketches=*/false));
  }

  std::unique_ptr<Transport> wrapped;
  if (config_.wrap_transport) wrapped = config_.wrap_transport(transport_);
  Transport& bus = wrapped ? *wrapped : static_cast<Transport&>(transport_);

  // Live status endpoint, polled from this loop's wait slices. Health and
  // the /healthz body read only atomics/transport counters, so a scrape
  // never touches (or perturbs) protocol state.
  const auto intervals_total =
      static_cast<std::int64_t>(config_.scenario.intervals);
  std::atomic<std::int64_t> current_interval{start};
  std::optional<StatusServer> status;
  if (config_.status_port >= 0) {
    StatusServerConfig scfg;
    scfg.host = config_.status_host;
    scfg.port = config_.status_port;
    scfg.healthy = [this] { return !stop_.load(std::memory_order_relaxed); };
    scfg.health_body = [this, &current_interval, intervals_total] {
      std::ostringstream oss;
      oss << "{\"healthy\":"
          << (stop_.load(std::memory_order_relaxed) ? "false" : "true")
          << ",\"role\":\"noc\",\"regions\":" << config_.regions
          << ",\"interval\":"
          << current_interval.load(std::memory_order_relaxed)
          << ",\"intervals_total\":" << intervals_total
          << ",\"reconnects\":" << transport_.reconnects()
          << ",\"poller\":\"" << transport_.poller_backend() << "\""
          << ",\"fusion\":\"" << config_.scenario.fusion << "\""
          << ",\"checkpointing\":"
          << (config_.checkpoint_dir.empty() ? "false" : "true") << "}\n";
      return oss.str();
    };
    status.emplace(std::move(scfg));
    if (config_.on_status_port) config_.on_status_port(status->port());
    log_info("nocd: status endpoint on ", config_.status_host, ":",
             status->port());
  }
  const auto poll_telemetry = [&] {
    if (status) status->poll();
    (void)FlightRecorder::global().poll_dump_request();
  };

  // Waits until `ready()` or the interval deadline; false when stopping.
  const auto wait_until = [&](const auto& ready, const char* what) {
    auto waited = std::chrono::milliseconds(0);
    while (!ready()) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      if (!bus.wait_for_mail(kNocId, kWaitSlice)) {
        waited += kWaitSlice;
        if (waited >= config_.interval_deadline) {
          throw TransportError(std::string("nocd: timed out waiting for ") +
                               what);
        }
      }
      poll_telemetry();
    }
    return true;
  };

  ScenarioRun run;
  const auto intervals = static_cast<std::int64_t>(config_.scenario.intervals);
  const std::int64_t end = config_.last_interval >= 0
                               ? std::min(intervals, config_.last_interval)
                               : intervals;
  SPCA_EXPECTS(start <= intervals);
  std::int64_t done_through = start;
  for (std::int64_t t = start; t < end; ++t) {
    current_interval.store(t, std::memory_order_relaxed);
    poll_telemetry();
    // Phase 1: every child reports interval t's volumes — per-monitor
    // reports when flat, one volume-shaped aggregate per region when
    // hierarchical. The kAdvance lock-step guarantees no report for t+1 can
    // arrive yet. Keyed by sender: a child that reconnected (e.g. after
    // this daemon restarted from a checkpoint) re-sends its report, and the
    // duplicate copy is identical, so last-wins per child is safe. Reports
    // for already-finished intervals (stale re-sends) are discarded, as are
    // sketch-shaped aggregates (racing duplicates of a finished pull).
    std::map<NodeId, Message> reports_by_child;
    std::map<NodeId, Message> scores_by_child;
    if (!wait_until(
            [&] {
              const MessageType wire = hier ? MessageType::kAggregate
                                            : MessageType::kVolumeReport;
              for (Message& msg : bus.take(kNocId, wire)) {
                if (msg.interval < t) continue;  // stale re-send
                if (hier) {
                  // The aggregate wire carries volume-, score-, and
                  // sketch-shaped payloads; route by shape. Sketch-shaped
                  // strays (racing duplicates of a finished pull) drop.
                  if (fusion && aggregate_shape_is(
                                    msg, MessageType::kScoreReport, rows)) {
                    scores_by_child[msg.from] = std::move(msg);
                    continue;
                  }
                  if (!aggregate_shape_is(msg, MessageType::kVolumeReport,
                                          rows)) {
                    continue;
                  }
                }
                reports_by_child[msg.from] = std::move(msg);
              }
              if (fusion && !hier) {
                for (Message& msg :
                     bus.take(kNocId, MessageType::kScoreReport)) {
                  if (msg.interval < t) continue;  // stale re-send
                  scores_by_child[msg.from] = std::move(msg);
                }
              }
              return reports_by_child.size() >= num_children &&
                     (!fusion || scores_by_child.size() >= num_children);
            },
            "volume reports")) {
      break;
    }
    std::vector<Message> reports;
    reports.reserve(reports_by_child.size());
    for (auto& [id, msg] : reports_by_child) {
      reports.push_back(
          hier ? unwrap_aggregate(msg, MessageType::kVolumeReport, rows)
               : std::move(msg));
    }
    const Vector x = noc->assemble_volumes(t, reports);
    // Decode the first-line scores in ascending child order (std::map), the
    // same order the simulation sees, so the fused trajectory is
    // bit-identical.
    std::vector<MonitorScore> scores;
    if (fusion) {
      for (auto& [id, msg] : scores_by_child) {
        const Message report =
            hier ? unwrap_aggregate(msg, MessageType::kScoreReport, rows)
                 : std::move(msg);
        for (const MonitorScore& s : parse_score_report(report)) {
          scores.push_back(s);
        }
      }
    }

    // Phase 2: detection, matching DistributedDetector's warm-up skip.
    if (t + 1 >= static_cast<std::int64_t>(scenario.detector.window)) {
      const auto pull = [&] {
        noc->request_sketches(t, children, bus);
        if (!hier) {
          std::size_t responses = 0;
          if (!wait_until(
                  [&] {
                    for (const Message& msg :
                         bus.take(kNocId, MessageType::kSketchResponse)) {
                      noc->ingest_sketch_response(msg);
                      ++responses;
                    }
                    return responses >= num_monitors;
                  },
                  "sketch responses")) {
            throw TransportError("nocd: stopped during a sketch pull");
          }
        } else {
          // Sketch aggregates are keyed by region: a regional NOC that died
          // mid-pull lost the request with its connection, so when a region
          // redials we re-request from every region still missing. The
          // duplicate response a racing original may deliver is identical
          // (monitor sketch snapshots are read-only), so last-wins is safe.
          std::map<NodeId, Message> responses;
          std::uint64_t seen_reconnects = transport_.reconnects();
          if (!wait_until(
                  [&] {
                    for (Message& msg :
                         bus.take(kNocId, MessageType::kAggregate)) {
                      if (msg.interval != t) continue;
                      if (!aggregate_shape_is(
                              msg, MessageType::kSketchResponse, rows)) {
                        continue;
                      }
                      responses[msg.from] = std::move(msg);
                    }
                    if (responses.size() >= num_children) return true;
                    const std::uint64_t rc = transport_.reconnects();
                    if (rc != seen_reconnects) {
                      seen_reconnects = rc;
                      for (const NodeId child : children) {
                        if (responses.count(child) != 0) continue;
                        Message request;
                        request.type = MessageType::kSketchRequest;
                        request.from = kNocId;
                        request.to = child;
                        request.interval = t;
                        bus.send(request);
                      }
                    }
                    return false;
                  },
                  "sketch responses")) {
            throw TransportError("nocd: stopped during a sketch pull");
          }
          for (auto& [id, msg] : responses) {
            noc->ingest_sketch_response(
                unwrap_aggregate(msg, MessageType::kSketchResponse, rows));
          }
        }
        noc->refit();
      };
      const Detection det = noc->detect_with_pull(t, x, pull, bus);
      run.distances.push_back(det.distance);
      if (det.alarm) run.alarm_intervals.push_back(t);
      if (fusion) {
        const FusedDecision fused = fusion->fuse(t, det, scores);
        run.fused_statistics.push_back(fused.statistic);
        if (fused.alarm) run.fused_alarm_intervals.push_back(t);
      }
    } else if (fusion) {
      // Warm-up: fuse abstains but still runs, matching the simulation's
      // metric/trace accounting interval for interval.
      (void)fusion->fuse(t, Detection{}, scores);
    }

    // Phase 3: release the children into interval t+1 (regional NOCs relay
    // the advance to their shards).
    for (const NodeId child : children) {
      transport_.send_control(child, FrameType::kAdvance,
                              encode_interval_payload(t));
    }
    done_through = t + 1;
    current_interval.store(done_through, std::memory_order_relaxed);
    FlightRecorder::global().capture_metrics("noc_interval", t);
    if (store && config_.checkpoint_every > 0 &&
        done_through % config_.checkpoint_every == 0) {
      store->write(static_cast<std::uint64_t>(done_through),
                   noc->save_state());
      FlightRecorder::global().note("noc_checkpoint", done_through);
    }
  }

  if (store) {
    const std::string path = store->write(
        static_cast<std::uint64_t>(done_through), noc->save_state());
    log_info("nocd: final checkpoint (interval ", done_through, ") at ",
             path);
  }

  run.stats = transport_.stats();
  log_info("nocd: finished, ", run.alarm_intervals.size(), " alarms, ",
           noc->sketch_pulls(), " sketch pulls, ", transport_.reconnects(),
           " reconnects");
  return run;
}

}  // namespace spca
