#include "core/sketch_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "pca/q_statistic.hpp"

namespace spca {

namespace {

ProjectionWindow window_for(const SketchDetectorConfig& config) {
  SPCA_EXPECTS(config.window >= 2);
  SPCA_EXPECTS(config.sketch_rows >= 1);
  const ProjectionSource source =
      config.projection == ProjectionKind::kVerySparse
          ? ProjectionSource::very_sparse(config.seed, config.window)
          : ProjectionSource(config.projection, config.seed, config.sparsity);
  return ProjectionWindow(source, config.sketch_rows, config.window,
                          config.epsilon);
}

}  // namespace

SketchDetector::SketchDetector(std::size_t dimensions,
                               const SketchDetectorConfig& config)
    : m_(dimensions),
      config_(config),
      backend_(make_model_backend(config.backend, dimensions,
                                   config.sketch_rows)),
      window_(window_for(config)),
      last_centered_(dimensions) {
  SPCA_EXPECTS(dimensions >= 2);
  SPCA_EXPECTS(config.alpha > 0.0 && config.alpha < 1.0);
  // All flows read one window (same seed => same r_tk), exactly as the
  // distributed monitors do.
  flows_.assign(dimensions, FlowSketch(window_));
}

Detection SketchDetector::observe(std::int64_t t, const Vector& x) {
  static Histogram& observe_seconds =
      MetricsRegistry::global().histogram("spca.detector.observe_seconds");
  static Counter& alarms =
      MetricsRegistry::global().counter("spca.detector.alarms");
  static Counter& stale_passes =
      MetricsRegistry::global().counter("spca.detector.stale_passes");
  static Counter& lazy_pulls =
      MetricsRegistry::global().counter("spca.detector.lazy_pulls");
  static Counter& false_refreshes =
      MetricsRegistry::global().counter("spca.detector.false_refreshes");

  SPCA_EXPECTS(x.size() == m_);
  const ScopedTimer timer(observe_seconds);
  window_.advance(t);
  for (std::size_t j = 0; j < m_; ++j) {
    flows_[j].add(t, x[j], window_);
  }
  ++observed_;

  Detection det;
  if (observed_ < config_.window) {
    return det;  // warm-up
  }

  if (!model_.fitted() || !config_.lazy) {
    refresh_model();
    det.model_refreshed = true;
  }

  det.ready = true;
  double distance = model_.anomaly_distance(x, rank_);
  bool alarm = distance * distance > threshold_squared_;
  if (alarm && config_.lazy && !det.model_refreshed) {
    // Sec. IV-C: the stale model flagged the vector. Pull fresh sketches,
    // recompute PCA and the threshold, and re-check before alarming.
    refresh_model();
    det.model_refreshed = true;
    lazy_pulls.inc();
    distance = model_.anomaly_distance(x, rank_);
    alarm = distance * distance > threshold_squared_;
    // A false refresh: the stale model's suspicion did not survive refit.
    if (!alarm) false_refreshes.inc();
  } else if (config_.lazy && !det.model_refreshed) {
    stale_passes.inc();
  }
  last_centered_ = model_.center(x);
  det.distance = distance;
  det.threshold = std::sqrt(threshold_squared_);
  det.alarm = alarm;
  det.normal_rank = rank_;
  if (alarm) alarms.inc();
  EventTrace::global().record({name(), t, distance * distance,
                               threshold_squared_, rank_, det.model_refreshed,
                               alarm});
  return det;
}

Matrix SketchDetector::sketch_matrix() const {
  Matrix z(config_.sketch_rows, m_);
  for (std::size_t j = 0; j < m_; ++j) {
    z.set_col(j, flows_[j].sketch(window_));
  }
  return z;
}

Vector SketchDetector::sketch_means() const {
  Vector mu(m_);
  for (std::size_t j = 0; j < m_; ++j) {
    mu[j] = flows_[j].mean();
  }
  return mu;
}

void SketchDetector::refresh_model() {
  static Histogram& assembly_seconds = MetricsRegistry::global().histogram(
      "spca.detector.sketch_assembly_seconds");
  static Histogram& svd_seconds =
      MetricsRegistry::global().histogram("spca.detector.svd_seconds");
  static Counter& refreshes =
      MetricsRegistry::global().counter("spca.detector.model_refreshes");
  static Gauge& memory_gauge =
      MetricsRegistry::global().gauge("spca.sketch.memory_bytes");

  Matrix z(0, 0);
  Vector means;
  {
    const ScopedTimer timer(assembly_seconds);
    z = sketch_matrix();
    means = sketch_means();
  }
  // Effective sample count: what the histograms actually summarize.
  const std::uint64_t n_eff = std::max<std::uint64_t>(flows_[0].count(), 2);
  {
    const ScopedTimer timer(svd_seconds);
    model_ = backend_->fit_rows(z, std::move(means), n_eff);
    rank_ = config_.rank_policy.select(model_, z);
    threshold_squared_ = q_statistic_threshold_squared(
        model_.singular_values(), rank_, n_eff, config_.alpha);
  }
  ++model_computations_;
  refreshes.inc();
  memory_gauge.set(static_cast<double>(memory_bytes()));
}

Vector SketchDetector::distance_profile() const {
  SPCA_EXPECTS(model_.fitted());
  const std::size_t k = model_.component_count();
  Vector profile(k - 1);
  double residual = norm_squared(last_centered_);
  for (std::size_t r = 1; r < k; ++r) {
    double proj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      proj += model_.components()(i, r - 1) * last_centered_[i];
    }
    residual -= proj * proj;
    profile[r - 1] = std::sqrt(std::max(residual, 0.0));
  }
  return profile;
}

std::size_t SketchDetector::memory_bytes() const noexcept {
  // Fixed-size detector state: the object itself, the retained last
  // centered vector, the fitted model's heap allocations (spectrum,
  // m x min(l, m) component basis, column means) and the backend's warm
  // basis. These are O(m l) and independent of the window length n, so
  // Theorem 1's O(w log n) summary-state bound is unaffected — but the
  // absolute number matches what a deployment actually holds in memory.
  std::size_t bytes = sizeof(*this) + window_.memory_bytes();
  bytes += backend_->memory_bytes();
  bytes += last_centered_.size() * sizeof(double);
  bytes += model_.memory_bytes();
  for (const auto& f : flows_) bytes += f.memory_bytes();
  return bytes;
}

}  // namespace spca
