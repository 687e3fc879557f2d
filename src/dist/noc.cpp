#include "dist/noc.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/span_log.hpp"
#include "par/thread_pool.hpp"
#include "pca/q_statistic.hpp"

namespace spca {

NocConfig noc_config_from(const SketchDetectorConfig& config,
                          bool host_sketches) {
  NocConfig noc;
  noc.window = config.window;
  noc.sketch_rows = config.sketch_rows;
  noc.alpha = config.alpha;
  noc.rank_policy = config.rank_policy;
  noc.lazy = config.lazy;
  noc.host_sketches = host_sketches;
  noc.epsilon = config.epsilon;
  noc.projection = config.projection;
  noc.sparsity = config.sparsity;
  noc.seed = config.seed;
  noc.backend = config.backend;
  return noc;
}

namespace {

ProjectionWindow hosted_window_for(const NocConfig& config) {
  SPCA_EXPECTS(config.sketch_rows >= 1);
  const ProjectionSource source =
      config.projection == ProjectionKind::kVerySparse
          ? ProjectionSource::very_sparse(config.seed, config.window)
          : ProjectionSource(config.projection, config.seed, config.sparsity);
  return ProjectionWindow(source, config.sketch_rows, config.window,
                          config.epsilon);
}

}  // namespace

Noc::Noc(std::size_t num_flows, const NocConfig& config)
    : m_(num_flows),
      config_(config),
      backend_(make_model_backend(config.backend, num_flows,
                                   config.sketch_rows)),
      flow_state_(num_flows),
      hosted_window_(hosted_window_for(config)) {
  SPCA_EXPECTS(num_flows >= 2);
  SPCA_EXPECTS(config.alpha > 0.0 && config.alpha < 1.0);
  if (config.host_sketches) {
    hosted_sketches_.assign(num_flows, FlowSketch(hosted_window_));
  }
}

Vector Noc::assemble_volumes(std::int64_t t,
                             const std::vector<Message>& reports) {
  last_interval_ = t;
  const ScopedSpan span("noc", kStageNocFeed, t);
  Vector x(m_);
  std::vector<bool> seen(m_, false);
  for (const Message& msg : reports) {
    if (msg.type != MessageType::kVolumeReport || msg.interval != t) {
      throw ProtocolError("Noc: unexpected message while collecting volumes");
    }
    if (msg.ids.size() != msg.values.size()) {
      throw ProtocolError("Noc: malformed volume report");
    }
    for (std::size_t i = 0; i < msg.ids.size(); ++i) {
      const std::uint32_t flow = msg.ids[i];
      if (flow >= m_ || seen[flow]) {
        throw ProtocolError("Noc: duplicate or out-of-range flow report");
      }
      // A NaN distance never exceeds the threshold, so one bad volume would
      // silence the NOC: only finite, non-negative volumes get in.
      if (!std::isfinite(msg.values[i]) || msg.values[i] < 0.0) {
        throw ProtocolError("Noc: volume report is not a finite volume");
      }
      seen[flow] = true;
      x[flow] = msg.values[i];
    }
  }
  if (!std::all_of(seen.begin(), seen.end(), [](bool b) { return b; })) {
    throw ProtocolError("Noc: missing volume reports for interval");
  }
  if (config_.host_sketches) {
    // Theorem 1 alternative mode: the NOC maintains the histograms itself,
    // fed straight from the volume reports. This is the NOC's O(m log n)
    // update; the per-flow histograms are independent, so it fans out.
    hosted_window_.advance(t);
    global_pool().parallel_for(0, m_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        hosted_sketches_[j].add(t, x[j], hosted_window_);
      }
    });
  }
  return x;
}

Vector Noc::collect_volumes(std::int64_t t, Transport& network) {
  return assemble_volumes(t, network.drain(kNocId));
}

void Noc::request_sketches(std::int64_t t,
                           const std::vector<NodeId>& monitors,
                           Transport& network) {
  for (const NodeId monitor : monitors) {
    Message request;
    request.type = MessageType::kSketchRequest;
    request.from = kNocId;
    request.to = monitor;
    request.interval = t;
    network.send(request);
  }
  ++sketch_pulls_;
}

void Noc::ingest_sketch_response(const Message& msg) {
  if (msg.type != MessageType::kSketchResponse) {
    throw ProtocolError("Noc: expected sketch responses");
  }
  const std::size_t block = config_.sketch_rows + 2;
  if (msg.values.size() != msg.ids.size() * block) {
    throw ProtocolError("Noc: malformed sketch response");
  }
  // Check the whole response before storing any of it: the count must be
  // an integer a window can hold, and the mean and every z finite.
  const auto window = static_cast<double>(config_.window);
  for (std::size_t i = 0; i < msg.ids.size(); ++i) {
    if (msg.ids[i] >= m_) throw ProtocolError("Noc: sketch for unknown flow");
    const double* base = msg.values.data() + i * block;
    const double count = base[1];
    if (!(count >= 0.0 && count <= window && std::floor(count) == count)) {
      throw ProtocolError("Noc: sketch count out of range");
    }
    if (!std::all_of(base, base + block,
                     [](double v) { return std::isfinite(v); })) {
      throw ProtocolError("Noc: non-finite sketch value");
    }
  }
  for (std::size_t i = 0; i < msg.ids.size(); ++i) {
    FlowState& state = flow_state_[msg.ids[i]];
    const double* base = msg.values.data() + i * block;
    state.mean = base[0];
    state.count = static_cast<std::uint64_t>(base[1]);
    state.sketch.assign(base + 2, base + block);
    state.seen = true;
  }
}

void Noc::ingest_sketch_responses(Transport& network) {
  for (const Message& msg : network.drain(kNocId)) {
    ingest_sketch_response(msg);
  }
  refit();
}

void Noc::refit() {
  // The NOC-side PCA step of Theorem 1 — O(m l min(l, m)) on the small
  // side of the assembled sketch matrix — plus rank selection and
  // threshold computation.
  static Histogram& refit_seconds =
      MetricsRegistry::global().histogram("spca.noc.refit_seconds");
  static Counter& refits = MetricsRegistry::global().counter("spca.noc.refits");
  static Gauge& memory_gauge =
      MetricsRegistry::global().gauge("spca.noc.memory_bytes");
  const ScopedTimer timer(refit_seconds);
  const ScopedSpan span("noc", kStageRefit, last_interval_);
  refits.inc();

  Matrix z(config_.sketch_rows, m_);
  Vector means(m_);
  std::uint64_t n_eff = 2;
  for (std::size_t j = 0; j < m_; ++j) {
    const FlowState& state = flow_state_[j];
    if (!state.seen) {
      throw ProtocolError("Noc: refit before all sketches arrived");
    }
    means[j] = state.mean;
    n_eff = std::max(n_eff, state.count);
  }
  // Sketch-matrix assembly: flow j owns column j of Z-hat, so the column
  // scatter fans out across the pool with disjoint writes.
  global_pool().parallel_for(
      0, m_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          const FlowState& state = flow_state_[j];
          for (std::size_t k = 0; k < config_.sketch_rows; ++k) {
            z(k, j) = state.sketch[k];
          }
        }
      },
      /*min_grain=*/64);
  model_ = backend_->fit_rows(z, means, n_eff);
  rank_ = config_.rank_policy.select(*model_, z);
  threshold_squared_ = q_statistic_threshold_squared(
      model_->singular_values(), rank_, n_eff, config_.alpha);
  memory_gauge.set(static_cast<double>(memory_bytes()));
}

std::size_t Noc::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this) + backend_->memory_bytes() +
                      hosted_window_.memory_bytes();
  for (const FlowState& state : flow_state_) {
    bytes += sizeof(FlowState) + state.sketch.size() * sizeof(double);
  }
  for (const FlowSketch& sketch : hosted_sketches_) {
    bytes += sketch.memory_bytes();
  }
  if (model_) bytes += model_->memory_bytes();
  return bytes;
}

void Noc::pull_hosted() {
  SPCA_EXPECTS(config_.host_sketches);
  // No communication: read the NOC's own histograms. Each flow's state
  // comes from its own FlowSketch, so the read fans out across flows
  // (one aggregate pass per flow via report_into).
  global_pool().parallel_for(0, m_, [&](std::size_t lo, std::size_t hi) {
    Vector z;
    for (std::size_t j = lo; j < hi; ++j) {
      FlowState& state = flow_state_[j];
      const FlowSketch::Report report =
          hosted_sketches_[j].report_into(z, hosted_window_);
      state.mean = report.mean;
      state.count = report.count;
      state.sketch.assign(z.begin(), z.end());
      state.seen = true;
    }
  });
  ++sketch_pulls_;  // counts model recomputations in this mode
  refit();
}

Detection Noc::detect_with_pull(std::int64_t t, const Vector& x,
                                const std::function<void()>& pull,
                                Transport& network) {
  static Histogram& detect_seconds =
      MetricsRegistry::global().histogram("spca.noc.detect_seconds");
  static Histogram& pull_seconds =
      MetricsRegistry::global().histogram("spca.noc.pull_round_trip_seconds");
  static Counter& pulls =
      MetricsRegistry::global().counter("spca.noc.sketch_pulls");
  static Counter& stale_passes =
      MetricsRegistry::global().counter("spca.noc.stale_passes");
  static Counter& lazy_pulls =
      MetricsRegistry::global().counter("spca.noc.lazy_pulls");
  static Counter& false_refreshes =
      MetricsRegistry::global().counter("spca.noc.false_refreshes");
  static Counter& alarms = MetricsRegistry::global().counter("spca.noc.alarms");

  SPCA_EXPECTS(x.size() == m_);
  last_interval_ = t;
  const ScopedTimer detect_timer(detect_seconds);
  const ScopedSpan decision_span("noc", kStageDecision, t);
  const auto timed_pull = [&] {
    const ScopedTimer pull_timer(pull_seconds);
    pulls.inc();
    pull();
  };

  Detection det;
  if (!model_ || !config_.lazy) {
    timed_pull();
    det.model_refreshed = true;
  }

  det.ready = true;
  double distance = model_->anomaly_distance(x, rank_);
  bool alarm = distance * distance > threshold_squared_;
  if (alarm && config_.lazy && !det.model_refreshed) {
    log_debug("noc: stale model flagged interval ", t,
              ", pulling fresh sketches");
    timed_pull();
    det.model_refreshed = true;
    lazy_pulls.inc();
    distance = model_->anomaly_distance(x, rank_);
    alarm = distance * distance > threshold_squared_;
    if (!alarm) {
      false_refreshes.inc();
      log_debug("noc: interval ", t, " cleared by the refreshed model");
    }
  } else if (config_.lazy && !det.model_refreshed) {
    stale_passes.inc();
  }
  det.distance = distance;
  det.threshold = std::sqrt(threshold_squared_);
  det.alarm = alarm;
  det.normal_rank = rank_;

  if (alarm) {
    Message alert;
    alert.type = MessageType::kAlarm;
    alert.from = kNocId;
    alert.to = kNocId;  // operator console; stays local at the NOC
    alert.interval = t;
    network.send(alert);
    // Consume only the console alarm: a drain here would also swallow any
    // protocol traffic a concurrent transport has already delivered.
    (void)network.take(kNocId, MessageType::kAlarm);
    ++alarms_sent_;
    alarms.inc();
  }
  EventTrace::global().record({"noc", t, distance * distance,
                               threshold_squared_, rank_, det.model_refreshed,
                               alarm});
  return det;
}

Detection Noc::detect(std::int64_t t, const Vector& x,
                      const std::vector<NodeId>& monitors, Transport& network,
                      const std::function<void()>& pump_monitors) {
  const auto pull = [&] {
    if (config_.host_sketches) {
      pull_hosted();
      return;
    }
    request_sketches(t, monitors, network);
    pump_monitors();
    ingest_sketch_responses(network);
  };
  return detect_with_pull(t, x, pull, network);
}

}  // namespace spca
