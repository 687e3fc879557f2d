// Simulated Network Operation Center (Fig. 2, right half): assembles the
// network-wide measurement vector from monitor volume reports, maintains
// the sketch-PCA model, and runs the lazy detection protocol of Sec. IV-C:
//
//   d(y*) <= delta  -> no anomaly, keep the stale model (no communication)
//   d(y*) >  delta  -> pull fresh sketches, refit, re-check; alarm only if
//                      the fresh model still flags the vector.
//
// The class is transport-generic: the synchronous simulation drives it via
// `detect` (which pumps the in-process monitors inline), while the TCP NOC
// daemon drives the same state machine via the `assemble_volumes` /
// `ingest_sketch_response` / `refit` / `detect_with_pull` building blocks,
// supplying its own pull round-trip over the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "core/sketch_detector.hpp"
#include "dist/message.hpp"
#include "net/transport.hpp"
#include "pca/backend/model_backend.hpp"
#include "pca/pca_model.hpp"
#include "sketch/flow_sketch.hpp"
#include "sketch/projection_window.hpp"

namespace spca {

/// NOC-side configuration.
struct NocConfig {
  /// Sliding-window length n (for threshold scaling, eq. 23).
  std::size_t window = 2016;
  /// Sketch length l (must match the monitors').
  std::size_t sketch_rows = 200;
  /// Q-statistic false-alarm rate.
  double alpha = 0.01;
  /// Normal-subspace selection.
  RankPolicy rank_policy = RankPolicy::fixed(6);
  /// Lazy mode on/off (off = refit every interval, the eager ablation).
  bool lazy = true;
  /// Theorem 1's alternative deployment: when monitors "only have limited
  /// computation resources or bandwidth, we can maintain the VH and compute
  /// the sketches at the NOC side" — the NOC builds FlowSketches from the
  /// volume reports itself and never issues sketch pulls. Costs the NOC
  /// O(m log n) time and O(m log^2 n) space; monitors need only the O(1)
  /// Volume Counter. Requires `epsilon` and `seed` below.
  bool host_sketches = false;
  /// VH epsilon for NOC-hosted sketches.
  double epsilon = 0.01;
  /// Projection parameters for NOC-hosted sketches.
  ProjectionKind projection = ProjectionKind::kGaussian;
  double sparsity = 3.0;
  std::uint64_t seed = 42;
  /// Model-fitting strategy (exact | warm).
  ModelBackendKind backend = ModelBackendKind::kWarm;
};

/// Derives the NOC-side configuration from the shared detector parameters
/// (used by DistributedDetector and the NOC daemon, so both deployments fit
/// the same model from the same flags).
[[nodiscard]] NocConfig noc_config_from(const SketchDetectorConfig& config,
                                        bool host_sketches);

/// The NOC node.
class Noc final {
 public:
  Noc(std::size_t num_flows, const NocConfig& config);

  /// Validates and assembles the volume reports of interval `t` into the
  /// network-wide measurement vector (feeding the NOC-hosted sketches in
  /// host_sketches mode). Every flow must be covered exactly once, by a
  /// finite, non-negative volume; otherwise throws ProtocolError before
  /// any hosted sketch is fed.
  [[nodiscard]] Vector assemble_volumes(std::int64_t t,
                                        const std::vector<Message>& reports);

  /// Drains queued volume reports for interval `t` and assembles them.
  [[nodiscard]] Vector collect_volumes(std::int64_t t, Transport& network);

  /// Requests sketches from all monitors (they must answer before
  /// `ingest_sketch_responses` is called).
  void request_sketches(std::int64_t t, const std::vector<NodeId>& monitors,
                        Transport& network);

  /// Stores one sketch response into the per-flow state (no refit). Throws
  /// ProtocolError, storing nothing, unless every block names a known flow
  /// and carries a finite mean and z-vector and an integer count in
  /// [0, window].
  void ingest_sketch_response(const Message& msg);

  /// Ingests queued sketch responses and refits the PCA model.
  void ingest_sketch_responses(Transport& network);

  /// Recomputes the PCA model, rank, and threshold from the stored per-flow
  /// sketch state. Every flow must have reported at least once.
  void refit();

  /// host_sketches mode: refreshes the per-flow state from the NOC's own
  /// histograms and refits — the no-communication pull.
  void pull_hosted();

  /// Runs the lazy detection protocol for measurement `x` of interval `t`,
  /// with `pull` as the "fetch fresh sketches and refit" round-trip. The
  /// model is guaranteed fresh after `pull` returns. Alarms are sent to the
  /// operator console (kNocId) through `network` and consumed again via
  /// `take`, so concurrently queued protocol traffic is untouched.
  [[nodiscard]] Detection detect_with_pull(std::int64_t t, const Vector& x,
                                           const std::function<void()>& pull,
                                           Transport& network);

  /// Synchronous-simulation front end of `detect_with_pull`: the pull
  /// round-trip requests sketches, runs `pump_monitors` (the stand-in for
  /// the monitors' event loops), and ingests the responses.
  [[nodiscard]] Detection detect(std::int64_t t, const Vector& x,
                                 const std::vector<NodeId>& monitors,
                                 Transport& network,
                                 const std::function<void()>& pump_monitors);

  [[nodiscard]] const std::optional<PcaModel>& model() const noexcept {
    return model_;
  }
  [[nodiscard]] std::size_t num_flows() const noexcept { return m_; }
  [[nodiscard]] const NocConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t sketch_pulls() const noexcept {
    return sketch_pulls_;
  }
  [[nodiscard]] std::uint64_t alarms_sent() const noexcept {
    return alarms_sent_;
  }

  /// The model-fitting strategy in use (for tests and checkpoint codecs).
  [[nodiscard]] const ModelBackend& backend() const noexcept {
    return *backend_;
  }

  /// Bytes of NOC state: the per-flow sketch state (m l), the fitted model
  /// (m min(l, m)), the warm basis (min(l, m)^2) and any NOC-hosted
  /// sketches with their projection window — O(m l) in all, the paper's
  /// O(m log n) NOC space at l = O(log n). Mirrored into the
  /// `spca.noc.memory_bytes` gauge on every refit.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Serializes the full NOC state — configuration, per-flow sketch state,
  /// hosted histograms, the fitted model, rank, and threshold — into a
  /// versioned blob (dist/noc_io.cpp). A restored NOC continues the lazy
  /// protocol bit-identically.
  [[nodiscard]] std::vector<std::byte> save_state() const;

  /// Rebuilds a NOC from `save_state` output; throws ProtocolError on a
  /// malformed or truncated blob. When `expected_backend` is set, a blob
  /// written under a different model backend is rejected as ProtocolError:
  /// backend state is not interchangeable, and silently refitting cold
  /// would break the bit-identical-restore guarantee.
  [[nodiscard]] static Noc restore_state(
      const std::vector<std::byte>& blob,
      std::optional<ModelBackendKind> expected_backend = std::nullopt);

 private:
  std::size_t m_;
  NocConfig config_;
  std::unique_ptr<ModelBackend> backend_;
  /// Last received sketch state per flow: mean, count, z-vector.
  struct FlowState {
    double mean = 0.0;
    std::uint64_t count = 0;
    std::vector<double> sketch;
    bool seen = false;
  };
  std::vector<FlowState> flow_state_;
  /// The hosted sketches' shared projection window, advanced once per
  /// interval (holds no rows unless host_sketches).
  ProjectionWindow hosted_window_;
  /// NOC-hosted sketches (Theorem 1 alternative mode), empty otherwise.
  std::vector<FlowSketch> hosted_sketches_;
  std::optional<PcaModel> model_;
  std::size_t rank_ = 1;
  double threshold_squared_ = 0.0;
  std::uint64_t sketch_pulls_ = 0;
  std::uint64_t alarms_sent_ = 0;
  /// Interval the NOC most recently worked on; labels the refit span,
  /// since refit() itself is interval-agnostic. Not checkpointed: it is
  /// telemetry only and must never influence the trajectory.
  std::int64_t last_interval_ = -1;
};

}  // namespace spca
