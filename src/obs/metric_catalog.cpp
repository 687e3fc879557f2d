#include "obs/metric_catalog.hpp"

#include <algorithm>
#include <sstream>

namespace spca {

namespace {

// Keep sorted by name: find_metric binary-searches this list, and the
// catalog-order test fails on any row out of place.
const MetricInfo kCatalog[] = {
    {"spca.detect.first_line_trips", MetricKind::kCounter,
     "Monitor first-line scores above the trip threshold seen by the fusion "
     "engine."},
    {"spca.detect.fused_alarms", MetricKind::kCounter,
     "Intervals the ensemble fusion rule flagged as anomalous."},
    {"spca.detect.rpca_refits", MetricKind::kCounter,
     "Robust-PCA (PCP) baseline window refits."},
    {"spca.detect.score_reports", MetricKind::kCounter,
     "First-line score reports built by local monitors."},
    {"spca.detector.alarms", MetricKind::kCounter,
     "Intervals the sketch detector flagged as anomalous."},
    {"spca.detector.false_refreshes", MetricKind::kCounter,
     "Model refreshes where the refit cleared the alarm (stale-model false "
     "positive)."},
    {"spca.detector.lazy_pulls", MetricKind::kCounter,
     "Sketch pulls triggered by the lazy protocol (flagged intervals only)."},
    {"spca.detector.model_refreshes", MetricKind::kCounter,
     "Subspace refits performed by the sketch detector."},
    {"spca.detector.stale_passes", MetricKind::kCounter,
     "Intervals accepted by the stale model without a refit."},
    {"spca.fault.deduplicated", MetricKind::kCounter,
     "Duplicate injected messages suppressed by receiver-side dedup."},
    {"spca.fault.injected_corruptions", MetricKind::kCounter,
     "Messages the fault plan corrupted in flight."},
    {"spca.fault.injected_drops", MetricKind::kCounter,
     "Messages the fault plan dropped."},
    {"spca.fault.injected_duplicates", MetricKind::kCounter,
     "Messages the fault plan duplicated."},
    {"spca.fault.injected_kills", MetricKind::kCounter,
     "Node kill events executed by the chaos schedule."},
    {"spca.fault.injected_reorders", MetricKind::kCounter,
     "Messages the fault plan held back for reordering."},
    {"spca.fault.injected_resets", MetricKind::kCounter,
     "Connection reset events executed by the chaos schedule."},
    {"spca.fault.recovery_seconds", MetricKind::kHistogram,
     "Time from node restart to restored state (checkpoint load + tail "
     "absorb)."},
    {"spca.fault.retransmits", MetricKind::kCounter,
     "Deterministic retransmissions masking injected drops/corruptions."},
    {"spca.flight.dumps", MetricKind::kCounter,
     "Flight-recorder dump files written (signal, error, or explicit)."},
    {"spca.hier.aggregates_tx", MetricKind::kCounter,
     "Merged shard aggregates a regional NOC relayed towards the root."},
    {"spca.hier.merges", MetricKind::kCounter,
     "Complete shards a regional NOC merged into one aggregate."},
    {"spca.hier.requests_forwarded", MetricKind::kCounter,
     "Root sketch requests a regional NOC fanned out to its shard."},
    {"spca.ingest.batches", MetricKind::kCounter,
     "Record batches drained from the ingest ring."},
    {"spca.ingest.intervals", MetricKind::kCounter,
     "Intervals closed by the ingest consumer."},
    {"spca.ingest.passes", MetricKind::kCounter,
     "Full replay passes over the trace set."},
    {"spca.ingest.producer_blocks", MetricKind::kCounter,
     "Producer stalls on a full ingest ring (backpressure events)."},
    {"spca.ingest.records", MetricKind::kCounter,
     "Flow records absorbed by the ingest pipeline."},
    {"spca.ingest.records_per_sec", MetricKind::kGauge,
     "Most recent sustained ingest rate measured by spca_replay."},
    {"spca.ingest.ring_occupancy", MetricKind::kHistogram,
     "Ingest ring occupancy (batches) sampled at each consumer drain."},
    {"spca.lakhina.alarms", MetricKind::kCounter,
     "Intervals the centralized Lakhina baseline flagged as anomalous."},
    {"spca.lakhina.eig_seconds", MetricKind::kHistogram,
     "Eigendecomposition time per Lakhina model refresh."},
    {"spca.lakhina.model_refreshes", MetricKind::kCounter,
     "Model refreshes performed by the Lakhina baseline."},
    {"spca.lakhina.observe_seconds", MetricKind::kHistogram,
     "End-to-end observe() time per interval for the Lakhina baseline."},
    {"spca.latency.decision", MetricKind::kHistogram,
     "NOC decision time per interval: detect on the assembled vector, "
     "including any lazy pull + refit."},
    {"spca.latency.ingest_absorb", MetricKind::kHistogram,
     "Monitor time absorbing one interval's flow volumes into the sketch."},
    {"spca.latency.noc_feed", MetricKind::kHistogram,
     "NOC time assembling monitor volume reports into the link vector."},
    {"spca.latency.refit", MetricKind::kHistogram,
     "NOC subspace refit time (sketch assembly + SVD) when a pull "
     "escalates."},
    {"spca.latency.sketch_close", MetricKind::kHistogram,
     "Monitor time flushing buffered volumes into sketch buckets at "
     "interval close."},
    {"spca.latency.wire_tx", MetricKind::kHistogram,
     "Monitor time serializing and sending the interval's volume report."},
    {"spca.monitor.intervals", MetricKind::kCounter,
     "Intervals closed by local monitors."},
    {"spca.monitor.sketch_responses", MetricKind::kCounter,
     "Sketch responses emitted by local monitors to NOC pulls."},
    {"spca.monitor.update_seconds", MetricKind::kHistogram,
     "Local-monitor interval close time (sketch flush + report build)."},
    {"spca.net.aggregate_bytes", MetricKind::kCounter,
     "Serialized payload bytes of regional shard aggregates."},
    {"spca.net.alarm_bytes", MetricKind::kCounter,
     "Serialized payload bytes of alarm messages."},
    {"spca.net.bytes_rx", MetricKind::kCounter,
     "Serialized payload bytes received across all transports."},
    {"spca.net.bytes_tx", MetricKind::kCounter,
     "Serialized payload bytes sent across all transports."},
    {"spca.net.connect_retries", MetricKind::kCounter,
     "TCP connect attempts beyond the first (backoff retries)."},
    {"spca.net.control_rx", MetricKind::kCounter,
     "Control frames (hello/advance) received."},
    {"spca.net.control_tx", MetricKind::kCounter,
     "Control frames (hello/advance) sent."},
    {"spca.net.frame_errors", MetricKind::kCounter,
     "Malformed or CRC-failing frames rejected by the decoder."},
    {"spca.net.messages", MetricKind::kCounter,
     "Protocol messages delivered across all transports."},
    {"spca.net.poller_backend", MetricKind::kGauge,
     "Readiness backend of the TCP io loop (1 = epoll, 0 = poll)."},
    {"spca.net.reconnects", MetricKind::kCounter,
     "Connections re-established after an EOF/error drop."},
    {"spca.net.score_report_bytes", MetricKind::kCounter,
     "Serialized payload bytes of first-line score reports."},
    {"spca.net.send_seconds", MetricKind::kHistogram,
     "Transport send() time per message."},
    {"spca.net.sketch_request_bytes", MetricKind::kCounter,
     "Serialized payload bytes of sketch-pull requests."},
    {"spca.net.sketch_response_bytes", MetricKind::kCounter,
     "Serialized payload bytes of sketch responses."},
    {"spca.net.volume_report_bytes", MetricKind::kCounter,
     "Serialized payload bytes of per-interval volume reports."},
    {"spca.noc.alarms", MetricKind::kCounter,
     "Alarms raised by the NOC after refit confirmation."},
    {"spca.noc.detect_seconds", MetricKind::kHistogram,
     "NOC detection time per interval (stale-model Q-statistic test)."},
    {"spca.noc.false_refreshes", MetricKind::kCounter,
     "NOC refits that cleared the tentative alarm."},
    {"spca.noc.lazy_pulls", MetricKind::kCounter,
     "Sketch pulls the NOC issued under the lazy protocol."},
    {"spca.noc.memory_bytes", MetricKind::kGauge,
     "Resident state bytes of the NOC (sketch state, model, warm basis) at "
     "its latest refit."},
    {"spca.noc.pull_round_trip_seconds", MetricKind::kHistogram,
     "Wall time from sketch-pull request to last monitor response."},
    {"spca.noc.refit_seconds", MetricKind::kHistogram,
     "NOC refit time (sketch assembly + SVD)."},
    {"spca.noc.refits", MetricKind::kCounter,
     "Subspace refits performed by the NOC."},
    {"spca.noc.sketch_pulls", MetricKind::kCounter,
     "Per-monitor sketch requests sent by the NOC."},
    {"spca.noc.stale_passes", MetricKind::kCounter,
     "Intervals the NOC accepted with the stale model."},
    {"spca.par.pool_size", MetricKind::kGauge,
     "Worker-thread count of the global thread pool."},
    {"spca.par.tasks", MetricKind::kCounter,
     "Chunk tasks executed by the thread pool."},
    {"spca.pca.backend_sweeps", MetricKind::kCounter,
     "Jacobi sweeps spent by the model backends across refits."},
    {"spca.pca.drift_restarts", MetricKind::kCounter,
     "Warm-backend cold restarts triggered by subspace drift."},
    {"spca.pca.refit_seconds", MetricKind::kHistogram,
     "Model-backend fit time per refit (any backend)."},
    {"spca.sketch.batches", MetricKind::kCounter,
     "Batched update calls into FlowSketch::add_batch."},
    {"spca.sketch.bucket_merges", MetricKind::kCounter,
     "Variance-histogram bucket merges during sketch maintenance."},
    {"spca.sketch.memory_bytes", MetricKind::kGauge,
     "Resident summary-state bytes of the most recently sized sketch "
     "detector."},
    {"spca.sketch.updates", MetricKind::kCounter,
     "Individual (flow, value) updates applied to flow sketches."},
    {"spca.status.http_errors", MetricKind::kCounter,
     "Status-endpoint requests answered with a 4xx/5xx response."},
    {"spca.status.requests", MetricKind::kCounter,
     "HTTP requests handled by the embedded status endpoint."},
};

}  // namespace

const std::vector<MetricInfo>& metric_catalog() {
  static const std::vector<MetricInfo> catalog(std::begin(kCatalog),
                                               std::end(kCatalog));
  return catalog;
}

const MetricInfo* find_metric(const std::string& name) {
  const auto& catalog = metric_catalog();
  const auto it = std::lower_bound(
      catalog.begin(), catalog.end(), name,
      [](const MetricInfo& info, const std::string& key) {
        return key.compare(info.name) > 0;
      });
  if (it != catalog.end() && name == it->name) return &*it;
  return nullptr;
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string render_metrics_doc() {
  std::ostringstream oss;
  oss << "# Metrics reference\n"
         "\n"
         "Every `spca.*` metric registered by the library, grouped by "
         "instrument\n"
         "kind. Counters are monotonically increasing event counts; gauges "
         "are\n"
         "last-write-wins instantaneous values; histograms are log-scale\n"
         "(~9% relative bucket width) and report count/sum/min/max plus\n"
         "p50/p90/p95/p99.\n"
         "\n"
         "All of them are served live by the daemons' `--status-port` "
         "endpoint\n"
         "(`/metrics.json` for the JSON rendering, `/metrics` for Prometheus "
         "text\n"
         "exposition, where `.` maps to `_`) and written at exit via\n"
         "`--metrics-out`.\n"
         "\n"
         "<!-- Generated by spca::render_metrics_doc(); run spca_tests_obs\n"
         "     with SPCA_UPDATE_METRICS_DOC=1 to regenerate. -->\n";
  for (const MetricKind kind :
       {MetricKind::kCounter, MetricKind::kGauge, MetricKind::kHistogram}) {
    oss << "\n## " << (kind == MetricKind::kCounter   ? "Counters"
                       : kind == MetricKind::kGauge ? "Gauges"
                                                    : "Histograms")
        << "\n\n| Name | Meaning |\n|---|---|\n";
    for (const MetricInfo& info : metric_catalog()) {
      if (info.kind != kind) continue;
      oss << "| `" << info.name << "` | " << info.help << " |\n";
    }
  }
  return oss.str();
}

}  // namespace spca
