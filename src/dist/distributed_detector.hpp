// Facade running the full simulated deployment — k local monitors plus the
// NOC over a SimNetwork — behind the ordinary Detector interface, so the
// evaluation harness can compare it directly against the single-process
// SketchDetector (they must agree verdict-for-verdict given equal
// parameters; an integration test enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "core/sketch_detector.hpp"
#include "detect/fusion.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc.hpp"
#include "dist/sim_network.hpp"

namespace spca {

/// The distributed deployment as a Detector.
class DistributedDetector final : public Detector {
 public:
  /// Flows are distributed round-robin over `num_monitors` monitors, which
  /// mirrors OD flows being observed at their origin routers.
  ///
  /// `noc_hosted_sketches` selects Theorem 1's low-resource deployment:
  /// monitors run only the Volume Counter, the NOC maintains every flow's
  /// histogram itself, and no sketch-pull messages are ever sent.
  ///
  /// `transport` overrides the message carrier (e.g. a FaultyTransport
  /// over a SimNetwork); nullptr uses the built-in SimNetwork. The caller
  /// keeps ownership and must outlive the detector.
  DistributedDetector(std::size_t dimensions, std::size_t num_monitors,
                      const SketchDetectorConfig& config,
                      bool noc_hosted_sketches = false,
                      Transport* transport = nullptr);

  [[nodiscard]] bool noc_hosted_sketches() const noexcept {
    return noc_hosted_;
  }

  /// Feeds the network-wide measurement vector: each monitor ingests the
  /// volumes of its own flows (as raw FlowUpdate records), ends the
  /// interval, and the NOC runs the lazy protocol.
  Detection observe(std::int64_t t, const Vector& x) override;

  [[nodiscard]] std::string name() const override {
    return "sketch-pca-distributed";
  }

  [[nodiscard]] const NetworkStats& network_stats() const noexcept {
    return transport_->stats();
  }
  void reset_network_stats() noexcept { transport_->reset_stats(); }

  [[nodiscard]] const Noc& noc() const noexcept { return noc_; }
  [[nodiscard]] std::size_t num_monitors() const noexcept {
    return monitors_.size();
  }

  /// Total sketch-summary bytes across all monitors.
  [[nodiscard]] std::size_t monitor_memory_bytes() const noexcept;

  /// Turns on the ensemble detection plane: every monitor runs a first-line
  /// scorer and ships kScoreReports, and the NOC-side observe() fuses them
  /// with the sketch-PCA verdict. Must be called before the first observe;
  /// the sketch Detection returned by observe() is unchanged — the fused
  /// verdict is read through last_fused().
  void enable_fusion(const FusionConfig& fusion,
                     const FirstLineConfig& first_line = {});
  [[nodiscard]] bool fusion_enabled() const noexcept {
    return fusion_.has_value();
  }
  /// The fused verdict of the last observed interval (abstaining during
  /// warm-up); default-constructed before the first observe.
  [[nodiscard]] const FusedDecision& last_fused() const noexcept {
    return last_fused_;
  }

 private:
  std::size_t m_;
  SketchDetectorConfig config_;
  bool noc_hosted_ = false;
  SimNetwork network_;          // default carrier
  Transport* transport_ = nullptr;  // the active carrier (may be external)
  std::vector<std::unique_ptr<LocalMonitor>> monitors_;
  std::vector<NodeId> monitor_ids_;
  Noc noc_;
  std::optional<FusionEngine> fusion_;
  FusedDecision last_fused_;
  std::uint64_t observed_ = 0;
};

}  // namespace spca
