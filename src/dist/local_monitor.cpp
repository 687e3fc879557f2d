#include "dist/local_monitor.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "detect/score_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/span_log.hpp"
#include "par/thread_pool.hpp"

namespace spca {

namespace {

/// Minimum flows per lane of the interval close. A flow's close costs
/// 2-6 us, less than a pool dispatch, so monitors of up to 127 flows (the
/// paper's 9-flow Abilene monitors among them) close inline.
constexpr std::size_t kCloseGrain = 64;

/// Minimum flows per lane of sketch emission. A flow's emission folds its
/// window's payloads (~60 us at l = 200), which pays for a dispatch from
/// two flows per lane: 9 flows use four lanes, 1-3 flows run inline.
constexpr std::size_t kEmitGrain = 2;

}  // namespace

LocalMonitor::LocalMonitor(NodeId id, std::vector<FlowId> flows,
                           std::uint64_t window, double epsilon,
                           std::size_t sketch_rows,
                           const ProjectionSource& projection,
                           bool counter_only)
    : id_(id),
      flows_(std::move(flows)),
      counter_only_(counter_only),
      counter_(static_cast<std::uint32_t>(flows_.size())),
      window_(projection, sketch_rows, window, epsilon) {
  SPCA_EXPECTS(id != kNocId);
  SPCA_EXPECTS(!flows_.empty());
  if (!counter_only_) sketches_.assign(flows_.size(), FlowSketch(window_));
}

void LocalMonitor::record(FlowId flow, std::uint32_t size_bytes) {
  const auto it = std::find(flows_.begin(), flows_.end(), flow);
  SPCA_EXPECTS(it != flows_.end());
  counter_.record(static_cast<FlowId>(it - flows_.begin()), size_bytes);
}

void LocalMonitor::ingest_volume(FlowId flow, double bytes) {
  const auto it = std::find(flows_.begin(), flows_.end(), flow);
  SPCA_EXPECTS(it != flows_.end());
  counter_.record_bytes(static_cast<FlowId>(it - flows_.begin()), bytes);
}

Vector LocalMonitor::flush_interval(std::int64_t t) {
  const Vector volumes = counter_.end_interval();
  // The per-flow O(l) updates and VH bucket merges are independent across
  // flows (each FlowSketch owns its histogram and only reads the window,
  // whose row for t is computed once here), so the Fig. 4 interval close
  // of a large monitor fans out across the pool. Static chunking keeps the
  // result bit-identical to the serial loop.
  if (!counter_only_) window_.advance(t);
  global_pool().parallel_for(
      0, sketches_.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          sketches_[i].add(t, volumes[i], window_);
        }
      },
      kCloseGrain);
  // First-line scoring rides the same flush so end_interval, absorb_interval,
  // and the daemons' warm-rebuild replay all advance the scorer identically.
  if (scorer_) (void)scorer_->observe(volumes.span());
  return volumes;
}

void LocalMonitor::enable_first_line(const FirstLineConfig& config) {
  SPCA_EXPECTS(!scorer_);
  SPCA_EXPECTS(counter_.intervals_completed() == 0);
  scorer_.emplace(config);
}

void LocalMonitor::absorb_interval(std::int64_t t) { (void)flush_interval(t); }

void LocalMonitor::absorb_block(std::int64_t first, std::size_t count,
                                std::span<const double> volumes) {
  const std::size_t w = flows_.size();
  SPCA_EXPECTS(volumes.size() == count * w);
  if (count == 0) return;
  // The counter plays no part here (the pipeline aggregated the volumes
  // already), but its interval count must stay in step with the per-interval
  // path so checkpoints remain interchangeable.
  counter_.advance_intervals(count);
  if (!counter_only_) {
    // Every row of the block enters the window before the fan-out, which
    // only reads it: capacity R + count keeps the rows the first updates
    // still need.
    window_.reserve_block(count);
    for (std::size_t r = 0; r < count; ++r) {
      window_.advance(first + static_cast<std::int64_t>(r));
    }
    // Per-flow streams are independent; each lane walks its flow's column
    // through the whole block with one batched sketch update. Static
    // chunking keeps the result bit-identical to the serial loop at any
    // thread count.
    global_pool().parallel_for(0, w, [&](std::size_t lo, std::size_t hi) {
      std::vector<SketchUpdate> batch(count);
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t r = 0; r < count; ++r) {
          batch[r].t = first + static_cast<std::int64_t>(r);
          batch[r].volume = volumes[r * w + i];
        }
        sketches_[i].add_batch(batch, window_);
      }
    });
  }
  // The scorer is a serial per-interval stream: walk the block rows in
  // order so the state matches the per-interval path bit for bit.
  if (scorer_) {
    for (std::size_t r = 0; r < count; ++r) {
      (void)scorer_->observe(volumes.subspan(r * w, w));
    }
  }
}

void LocalMonitor::end_interval(std::int64_t t, Transport& network) {
  // Per-monitor interval-close latency: the O(w log n) Fig. 4 update of all
  // owned flows plus the volume report send.
  static Histogram& update_seconds =
      MetricsRegistry::global().histogram("spca.monitor.update_seconds");
  static Counter& intervals =
      MetricsRegistry::global().counter("spca.monitor.intervals");
  const ScopedTimer timer(update_seconds);
  intervals.inc();
  // One heartbeat a day at 5-minute intervals; debug level sees them all.
  SPCA_LOG_EVERY_N(288, LogLevel::kDebug, "monitor ", id_,
                   ": closing interval ", t);

  const std::string node = "monitor" + std::to_string(id_);
  Vector volumes;
  {
    const ScopedSpan span(node, kStageSketchClose, t);
    volumes = flush_interval(t);
  }
  const ScopedSpan span(node, kStageWireTx, t);
  Message report;
  report.type = MessageType::kVolumeReport;
  report.from = id_;
  report.to = upstream_;
  report.interval = t;
  report.ids = flows_;
  report.values.assign(volumes.begin(), volumes.end());
  last_report_ = report;
  // Both reports of t are kept before either is sent, so resend_report
  // re-sends the pair of t even when a send below throws.
  if (scorer_) {
    static Counter& score_reports =
        MetricsRegistry::global().counter("spca.detect.score_reports");
    score_reports.inc();
    last_score_report_ =
        make_score_report(id_, upstream_, t, scorer_->last());
  }
  network.send(report);
  if (scorer_) network.send(last_score_report_);
}

void LocalMonitor::resend_report(Transport& network) {
  if (last_report_.ids.empty()) return;  // nothing reported yet
  network.send(last_report_);
  if (!last_score_report_.ids.empty()) network.send(last_score_report_);
}

void LocalMonitor::handle_mail(Transport& network) {
  for (const Message& msg : network.drain(id_)) {
    handle_request(msg, network);
  }
}

void LocalMonitor::handle_request(const Message& msg, Transport& network) {
  if (msg.type != MessageType::kSketchRequest) {
    throw ProtocolError("LocalMonitor: unexpected message type");
  }
  if (counter_only_) {
    throw ProtocolError(
        "LocalMonitor: sketch request received by a counter-only monitor "
        "(the NOC must be configured with host_sketches)");
  }
  static Counter& responses =
      MetricsRegistry::global().counter("spca.monitor.sketch_responses");
  responses.inc();
  network.send(make_sketch_response(msg.interval));
}

Message LocalMonitor::make_sketch_response(std::int64_t interval) const {
  Message response;
  response.type = MessageType::kSketchResponse;
  response.from = id_;
  response.to = upstream_;
  response.interval = interval;
  response.ids = flows_;
  // Every flow owns a fixed-size block [mean, count, z_1..z_l] of the
  // payload, so emission parallelizes over flows with disjoint writes.
  const std::size_t rows = window_.sketch_rows();
  const std::size_t block = rows + 2;
  response.values.resize(flows_.size() * block);
  global_pool().parallel_for(
      0, sketches_.size(), [&](std::size_t lo, std::size_t hi) {
        Vector z;
        for (std::size_t i = lo; i < hi; ++i) {
          double* out = response.values.data() + i * block;
          const FlowSketch::Report report =
              sketches_[i].report_into(z, window_);
          out[0] = report.mean;
          out[1] = static_cast<double>(report.count);
          for (std::size_t k = 0; k < rows; ++k) out[2 + k] = z[k];
        }
      },
      kEmitGrain);
  return response;
}

std::size_t LocalMonitor::memory_bytes() const noexcept {
  std::size_t bytes = window_.memory_bytes();
  for (const auto& s : sketches_) bytes += s.memory_bytes();
  return bytes;
}

}  // namespace spca
