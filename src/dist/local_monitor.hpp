// Simulated local monitor (Fig. 1 left): owns a subset of the OD flows,
// runs the full Fig. 4 pipeline — packet aggregation feeds a VolumeCounter;
// at interval end the volumes go into per-flow FlowSketches and a volume
// report goes to the NOC; sketch requests are answered from the histograms.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "detect/first_line.hpp"
#include "dist/message.hpp"
#include "linalg/vector.hpp"
#include "net/transport.hpp"
#include "rand/projection_source.hpp"
#include "sketch/flow_sketch.hpp"
#include "sketch/projection_window.hpp"
#include "traffic/flow.hpp"
#include "traffic/volume_counter.hpp"

namespace spca {

/// One monitor process in the simulated deployment.
class LocalMonitor final {
 public:
  /// `flows` lists the global FlowIds this monitor observes; all monitors
  /// must construct their ProjectionSource from the same (kind, seed, s) so
  /// the NOC can stitch their sketch columns together.
  ///
  /// With `counter_only` (Theorem 1's low-resource deployment) the monitor
  /// maintains no sketches at all — only the O(1)-per-packet Volume
  /// Counter — and rejects sketch requests; the NOC must host the
  /// histograms itself (NocConfig::host_sketches).
  LocalMonitor(NodeId id, std::vector<FlowId> flows, std::uint64_t window,
               double epsilon, std::size_t sketch_rows,
               const ProjectionSource& projection, bool counter_only = false);

  /// Records one (FlowID, Size) observation of the current interval; flow
  /// must be owned by this monitor. O(1) per packet.
  void record(FlowId flow, std::uint32_t size_bytes);

  /// Records a pre-aggregated byte amount for an owned flow (interval-level
  /// replay of a trace; preserves fractional bytes).
  void ingest_volume(FlowId flow, double bytes);

  /// Ends interval `t`: flushes the volume counter into the sketches and
  /// sends the volume report to the NOC. O(w log n) for w owned flows.
  void end_interval(std::int64_t t, Transport& network);

  /// Ends interval `t` locally: flushes the counter into the sketches
  /// without sending anything. A restarted monitor daemon replays its trace
  /// through this to rebuild sketch state the NOC has already accounted
  /// for, so the post-reconnect trajectory continues bit-identically.
  void absorb_interval(std::int64_t t);

  /// Batched local absorption: replays `count` consecutive intervals
  /// [first, first + count) whose pre-aggregated volumes are given row-major
  /// (`volumes[i * flows().size() + j]` = interval first+i, owned flow j, in
  /// flows() order). The per-flow updates go through FlowSketch::add_batch,
  /// so the resulting state is bit-identical to calling ingest_volume +
  /// absorb_interval per interval — at every block size and thread count.
  /// Requires an empty (just-flushed) volume counter; this is the ingest
  /// pipeline's hot path.
  void absorb_block(std::int64_t first, std::size_t count,
                    std::span<const double> volumes);

  /// Re-sends the most recent volume report (no-op before the first
  /// end_interval). Used by the daemon after a NOC reconnect: a report in
  /// flight when the NOC went down died with the old connection, and the
  /// restarted NOC cannot advance until it arrives again. The NOC tolerates
  /// the duplicate copy that a racing original may also deliver. When the
  /// first-line scorer is on, the matching score report is re-sent too.
  void resend_report(Transport& network);

  /// Turns on the first-line scorer of the ensemble detection plane: every
  /// interval close scores the monitor's owned volumes (entropy + rate
  /// z-scores) and end_interval additionally ships a kScoreReport upstream.
  /// Must be called before the first interval; all monitors of a deployment
  /// must agree (the NOC waits for score reports from everyone or no one).
  void enable_first_line(const FirstLineConfig& config = {});
  [[nodiscard]] bool first_line_enabled() const noexcept {
    return scorer_.has_value();
  }
  /// The scorer state, when enabled (tests, fused local pipelines).
  [[nodiscard]] const FirstLineScorer* first_line() const noexcept {
    return scorer_ ? &*scorer_ : nullptr;
  }

  /// Handles queued requests (sketch pulls), sending responses.
  void handle_mail(Transport& network);

  /// Answers one sketch request (used by the daemon event loop, which
  /// receives its mail through the transport's inbox rather than drain()).
  void handle_request(const Message& msg, Transport& network);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<FlowId>& flows() const noexcept {
    return flows_;
  }

  /// Where volume reports and sketch responses go. Defaults to the root NOC
  /// (kNocId); the hierarchical deployment points it at the monitor's
  /// regional NOC instead. Deployment topology, not stream state: it is not
  /// checkpointed, and a restored monitor must be re-pointed by its daemon.
  void set_upstream(NodeId upstream) noexcept { upstream_ = upstream; }
  [[nodiscard]] NodeId upstream() const noexcept { return upstream_; }

  /// Summary-state bytes across the monitor's sketches plus their shared
  /// projection window, counted once (Theorem 1).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Serializes the full monitor state — configuration, unflushed volume
  /// buckets, and every sketch's VH buckets — into a versioned blob. A
  /// monitor restored from it answers sketch requests bit-identically to
  /// one that lived through the whole stream (dist/local_monitor_io.cpp).
  [[nodiscard]] std::vector<std::byte> save_state() const;

  /// Rebuilds a monitor from `save_state` output; throws ProtocolError on a
  /// malformed or truncated blob.
  [[nodiscard]] static LocalMonitor restore_state(
      const std::vector<std::byte>& blob);

 private:
  [[nodiscard]] Message make_sketch_response(std::int64_t interval) const;
  /// Flushes the counter into the sketches; returns the interval volumes.
  Vector flush_interval(std::int64_t t);

  NodeId id_;
  NodeId upstream_ = kNocId;
  std::vector<FlowId> flows_;
  bool counter_only_;
  VolumeCounter counter_;
  // The sketch configuration (n, epsilon, l, projection) and the
  // coefficient rows every owned sketch reads; advanced once per interval,
  // outside the per-flow fan-outs. Holds no rows when counter_only_.
  ProjectionWindow window_;
  std::vector<FlowSketch> sketches_;  // aligned with flows_; empty when
                                      // counter_only_
  std::optional<FirstLineScorer> scorer_;  // engaged by enable_first_line;
                                           // checkpointed (blob v2)
  Message last_report_;  // retained for resend_report; not checkpointed (a
                         // restarted monitor reports again naturally)
  Message last_score_report_;  // ditto, for the first-line score
};

}  // namespace spca
