#include "pca/pca_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "linalg/stats.hpp"
#include "linalg/svd.hpp"

namespace spca {

PcaModel PcaModel::from_data(const Matrix& x) {
  SPCA_EXPECTS(x.rows() >= 2 && x.cols() >= 1);
  Svd f = svd(center_columns(x), /*want_left=*/false);
  return from_parts(std::move(f.values), std::move(f.right),
                    ::spca::column_means(x), x.rows());
}

PcaModel PcaModel::from_parts(Vector singular_values, Matrix components,
                              Vector column_means,
                              std::uint64_t sample_count) {
  SPCA_EXPECTS(components.cols() >= 1 &&
               components.cols() <= components.rows());
  SPCA_EXPECTS(components.cols() == singular_values.size());
  SPCA_EXPECTS(components.rows() == column_means.size());
  SPCA_EXPECTS(sample_count >= 2);
  PcaModel model;
  model.dims_ = components.rows();
  model.sample_count_ = sample_count;
  model.singular_values_ = std::move(singular_values);
  model.components_ = std::move(components);
  model.means_ = std::move(column_means);
  return model;
}

PcaModel PcaModel::from_leading(std::size_t k, Vector singular_values,
                                Matrix components, Vector column_means,
                                std::uint64_t sample_count) {
  SPCA_EXPECTS(k >= 1 && k <= singular_values.size() &&
               singular_values.size() == components.cols());
  if (k == singular_values.size()) {
    return from_parts(std::move(singular_values), std::move(components),
                      std::move(column_means), sample_count);
  }
  Vector values(k);
  Matrix leading(components.rows(), k);
  for (std::size_t j = 0; j < k; ++j) values[j] = singular_values[j];
  for (std::size_t i = 0; i < components.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) leading(i, j) = components(i, j);
  }
  return from_parts(std::move(values), std::move(leading),
                    std::move(column_means), sample_count);
}

PcaModel PcaModel::from_sketch(const Matrix& z_hat, Vector column_means,
                               std::uint64_t sample_count) {
  SPCA_EXPECTS(z_hat.cols() == column_means.size());
  // The one-sided Jacobi SVD sorts the m - l rounding-noise columns of a
  // wide sketch last; keep the min(l, m) that carry its spectrum.
  Svd f = svd(z_hat, /*want_left=*/false);
  return from_leading(std::min(z_hat.rows(), z_hat.cols()),
                      std::move(f.values), std::move(f.right),
                      std::move(column_means), sample_count);
}

void PcaModel::save_state(ByteWriter& out) const {
  SPCA_EXPECTS(fitted());
  const std::size_t k = component_count();
  out.put(sample_count_);
  out.put_all(singular_values_.data());
  std::vector<double> components(dims_ * k);
  for (std::size_t i = 0; i < dims_; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      components[i * k + j] = components_(i, j);
    }
  }
  out.put_all(components);
  out.put_all(means_.data());
}

PcaModel PcaModel::restore_state(ByteReader& in, std::size_t m,
                                 std::size_t k) {
  SPCA_EXPECTS(k >= 1 && k <= m);
  const auto sample_count = in.get<std::uint64_t>();
  Vector singular_values(in.get_all<double>());
  const std::vector<double> components_flat = in.get_all<double>();
  Vector means(in.get_all<double>());
  if (singular_values.size() != k || means.size() != m ||
      components_flat.size() != m * k) {
    throw ProtocolError("PcaModel: bad model shape in checkpoint");
  }
  if (sample_count < 2) {
    throw ProtocolError("PcaModel: sample count below 2 in checkpoint");
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (!std::isfinite(singular_values[j]) || singular_values[j] < 0.0) {
      throw ProtocolError("PcaModel: invalid singular value in checkpoint");
    }
  }
  // A non-finite mean or component makes every later distance NaN, and
  // NaN never exceeds the threshold: the node would restore and go silent.
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::all_of(means.begin(), means.end(), finite) ||
      !std::all_of(components_flat.begin(), components_flat.end(), finite)) {
    throw ProtocolError("PcaModel: non-finite mean or component in checkpoint");
  }
  Matrix components(m, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      components(i, j) = components_flat[i * k + j];
    }
  }
  return from_parts(std::move(singular_values), std::move(components),
                    std::move(means), sample_count);
}

double PcaModel::component_std(std::size_t j) const {
  SPCA_EXPECTS(fitted() && j < component_count());
  return singular_values_[j] /
         std::sqrt(static_cast<double>(sample_count_ - 1));
}

Vector PcaModel::center(const Vector& x) const {
  SPCA_EXPECTS(fitted() && x.size() == dims_);
  Vector y = x;
  y -= means_;
  return y;
}

double PcaModel::anomaly_distance(const Vector& x, std::size_t r) const {
  SPCA_EXPECTS(fitted() && x.size() == dims_ && r <= component_count());
  const Vector y = center(x);
  double residual = norm_squared(y);
  for (std::size_t j = 0; j < r; ++j) {
    double proj = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) proj += components_(i, j) * y[i];
    residual -= proj * proj;
  }
  // Rounding can push the residual a hair below zero when y lies (almost)
  // entirely inside the normal subspace.
  return std::sqrt(std::max(residual, 0.0));
}

PcaModel::Split PcaModel::split(const Vector& x, std::size_t r) const {
  SPCA_EXPECTS(fitted() && x.size() == dims_ && r <= component_count());
  const Vector y = center(x);
  Vector normal(dims_);
  for (std::size_t j = 0; j < r; ++j) {
    double proj = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) proj += components_(i, j) * y[i];
    for (std::size_t i = 0; i < dims_; ++i) {
      normal[i] += proj * components_(i, j);
    }
  }
  Vector anomaly = y;
  anomaly -= normal;
  return {std::move(normal), std::move(anomaly)};
}

std::size_t select_rank_by_energy(const Vector& singular_values,
                                  double fraction) {
  SPCA_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  double total = 0.0;
  for (std::size_t j = 0; j < singular_values.size(); ++j) {
    total += singular_values[j] * singular_values[j];
  }
  if (total == 0.0) return 0;
  double cumulative = 0.0;
  for (std::size_t j = 0; j < singular_values.size(); ++j) {
    cumulative += singular_values[j] * singular_values[j];
    if (cumulative >= fraction * total) return j + 1;
  }
  return singular_values.size();
}

std::size_t select_rank_by_scree(const Vector& singular_values,
                                 double knee_fraction) {
  SPCA_EXPECTS(knee_fraction > 0.0 && knee_fraction <= 1.0);
  const std::size_t m = singular_values.size();
  if (m <= 1) return m;

  // Work on the eigenvalue (variance) scale, where the scree is defined.
  double largest_drop = 0.0;
  for (std::size_t j = 0; j + 1 < m; ++j) {
    const double drop = singular_values[j] * singular_values[j] -
                        singular_values[j + 1] * singular_values[j + 1];
    largest_drop = std::max(largest_drop, drop);
  }
  if (largest_drop <= 0.0) return 1;  // flat spectrum: no structure

  std::size_t elbow = 1;
  for (std::size_t j = 0; j + 1 < m; ++j) {
    const double drop = singular_values[j] * singular_values[j] -
                        singular_values[j + 1] * singular_values[j + 1];
    if (drop >= knee_fraction * largest_drop) {
      elbow = j + 1;
    }
  }
  return elbow;
}

std::size_t select_rank_by_ksigma(const Matrix& data, const PcaModel& model,
                                  double k) {
  SPCA_EXPECTS(model.fitted() && data.cols() == model.dimensions());
  SPCA_EXPECTS(k > 0.0);
  const std::size_t m = model.dimensions();
  const std::size_t n = data.rows();
  for (std::size_t j = 0; j < model.component_count(); ++j) {
    // Projection of every fitted row onto component j.
    Vector proj(n);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      const auto row = data.row_span(i);
      for (std::size_t c = 0; c < m; ++c) {
        sum += row[c] * model.components()(c, j);
      }
      proj[i] = sum;
    }
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += proj[i];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      var += (proj[i] - mean) * (proj[i] - mean);
    }
    var /= static_cast<double>(n > 1 ? n - 1 : 1);
    const double sigma = std::sqrt(var);
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(proj[i] - mean) > k * sigma) {
        return j;  // this and all later components form the anomaly subspace
      }
    }
  }
  return model.component_count();
}

}  // namespace spca
