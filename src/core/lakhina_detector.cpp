#include "core/lakhina_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "pca/q_statistic.hpp"

namespace spca {

LakhinaDetector::LakhinaDetector(std::size_t dimensions,
                                 const LakhinaConfig& config)
    : m_(dimensions),
      config_(config),
      backend_(make_model_backend(config.backend, dimensions, dimensions)),
      sum_(dimensions),
      gram_(dimensions, dimensions),
      last_centered_(dimensions) {
  SPCA_EXPECTS(dimensions >= 2);
  SPCA_EXPECTS(config.window >= 2);
  SPCA_EXPECTS(config.alpha > 0.0 && config.alpha < 1.0);
  SPCA_EXPECTS(config.recompute_period >= 1);
}

Detection LakhinaDetector::observe(std::int64_t t, const Vector& x) {
  static Histogram& observe_seconds =
      MetricsRegistry::global().histogram("spca.lakhina.observe_seconds");
  static Counter& alarms =
      MetricsRegistry::global().counter("spca.lakhina.alarms");

  SPCA_EXPECTS(x.size() == m_);
  const ScopedTimer timer(observe_seconds);
  if (!shift_) shift_ = x;

  // Shifted copy keeps accumulator magnitudes small (see header).
  Vector v = x;
  v -= *shift_;

  window_.push_back(v);
  sum_ += v;
  for (std::size_t i = 0; i < m_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t j = 0; j < m_; ++j) {
      gram_(i, j) += vi * v[j];
    }
  }
  if (window_.size() > config_.window) {
    const Vector& u = window_.front();
    sum_ -= u;
    for (std::size_t i = 0; i < m_; ++i) {
      const double ui = u[i];
      if (ui == 0.0) continue;
      for (std::size_t j = 0; j < m_; ++j) {
        gram_(i, j) -= ui * u[j];
      }
    }
    window_.pop_front();
  }

  Detection det;
  if (window_.size() < config_.window) {
    return det;  // warm-up: no verdict yet
  }

  if (!model_ || ++since_recompute_ >= config_.recompute_period) {
    refresh_model();
    since_recompute_ = 0;
    det.model_refreshed = true;
  }

  last_centered_ = model_->center(x);
  det.ready = true;
  det.normal_rank = rank_;
  det.distance = model_->anomaly_distance(x, rank_);
  det.threshold = std::sqrt(threshold_squared_);
  det.alarm = det.distance * det.distance > threshold_squared_;
  if (det.alarm) alarms.inc();
  EventTrace::global().record({name(), t, det.distance * det.distance,
                               threshold_squared_, rank_, det.model_refreshed,
                               det.alarm});
  return det;
}

void LakhinaDetector::refresh_model() {
  static Histogram& eig_seconds =
      MetricsRegistry::global().histogram("spca.lakhina.eig_seconds");
  static Counter& refreshes =
      MetricsRegistry::global().counter("spca.lakhina.model_refreshes");
  const ScopedTimer timer(eig_seconds);
  refreshes.inc();

  const double n = static_cast<double>(window_.size());
  // Centered Gram: G = sum v v^T - n vbar vbar^T (shift cancels).
  Vector mean_shifted = sum_;
  mean_shifted /= n;
  Matrix centered = gram_;
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      centered(i, j) -= n * mean_shifted[i] * mean_shifted[j];
    }
  }
  Vector means = mean_shifted;
  means += *shift_;

  // The backend owns the eigensolver strategy: warm (default) seeds each
  // refit with the previous basis — between consecutive intervals the
  // window covariance changes by two rank-one updates, so the eigenbasis
  // barely rotates and the warm Jacobi converges in a sweep or two.
  model_ = backend_->fit_gram(centered, std::move(means), window_.size());
  ++model_computations_;

  Matrix fitted_data;
  if (config_.rank_policy.kind == RankPolicy::Kind::kKSigma) {
    // The heuristic needs the actual centered window rows.
    fitted_data = Matrix(window_.size(), m_);
    for (std::size_t i = 0; i < window_.size(); ++i) {
      Vector row = window_[i];
      row -= mean_shifted;
      fitted_data.set_row(i, row);
    }
  }
  rank_ = config_.rank_policy.select(*model_, fitted_data);
  threshold_squared_ = q_statistic_threshold_squared(
      model_->singular_values(), rank_, window_.size(), config_.alpha);
}

Vector LakhinaDetector::distance_profile() const {
  SPCA_EXPECTS(model_.has_value());
  Vector profile(m_ - 1);
  double residual = norm_squared(last_centered_);
  for (std::size_t r = 1; r < m_; ++r) {
    double proj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      proj += model_->components()(i, r - 1) * last_centered_[i];
    }
    residual -= proj * proj;
    profile[r - 1] = std::sqrt(std::max(residual, 0.0));
  }
  return profile;
}

}  // namespace spca
