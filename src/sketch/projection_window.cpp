#include "sketch/projection_window.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "sketch/projection_batch.hpp"

namespace spca {

ProjectionWindow::ProjectionWindow(const ProjectionSource& source,
                                   std::size_t sketch_rows,
                                   std::uint64_t window, double epsilon)
    : source_(source),
      rows_(sketch_rows),
      window_(window),
      epsilon_(epsilon),
      span_(span_for(window, epsilon)),
      capacity_(span_ + 1) {
  SPCA_EXPECTS(sketch_rows >= 1);
}

std::size_t ProjectionWindow::span_for(std::uint64_t window, double epsilon) {
  SPCA_EXPECTS(window >= 2);
  SPCA_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
  // The smallest suffix count s with (eps/10)·s >= 2, written exactly as
  // Rule 2 is in VarianceHistogram::compact so rounding cannot split them.
  const double rate = epsilon / 10.0;
  const std::uint64_t cap = window;
  auto s = static_cast<std::uint64_t>(
      std::min(std::ceil(20.0 / epsilon), static_cast<double>(cap)));
  while (s > 1 && rate * static_cast<double>(s - 1) >= 2.0) --s;
  while (s < cap && rate * static_cast<double>(s) < 2.0) ++s;
  return static_cast<std::size_t>(s);
}

void ProjectionWindow::reserve_block(std::size_t block) {
  const std::size_t want = span_ + std::max<std::size_t>(block, 1);
  if (want <= capacity_) return;
  if (!coeff_.empty()) {
    std::vector<std::int64_t> times(want);
    std::vector<double> coeff(want * rows_);
    for (std::size_t i = 0; i < size_; ++i) {
      times[i] = times_[slot(i)];
      std::copy_n(coeff_.data() + slot(i) * rows_, rows_,
                  coeff.data() + i * rows_);
    }
    times_ = std::move(times);
    coeff_ = std::move(coeff);
    oldest_ = 0;
  }
  capacity_ = want;
}

void ProjectionWindow::advance(std::int64_t t) {
  SPCA_EXPECTS(size_ == 0 || t > times_[slot(size_ - 1)]);
  if (coeff_.empty()) {
    times_.resize(capacity_);
    coeff_.resize(capacity_ * rows_);
  }
  std::size_t s = slot(size_);
  if (size_ < capacity_) {
    ++size_;
  } else {
    s = oldest_;
    oldest_ = slot(1);
  }
  times_[s] = t;
  double* out = coeff_.data() + s * rows_;
  if (source_.kind() == ProjectionKind::kTugOfWar) {
    fill_tow_row(source_.seed(), t, rows_, out);
  } else {
    for (std::size_t k = 0; k < rows_; ++k) out[k] = source_.value(t, k);
  }
}

void ProjectionWindow::refill(std::span<const std::int64_t> timestamps) {
  oldest_ = 0;
  size_ = 0;
  for (const std::int64_t t : timestamps) advance(t);
}

const double* ProjectionWindow::row(std::int64_t t) const noexcept {
  if (size_ == 0) return nullptr;
  const std::int64_t newest = times_[slot(size_ - 1)];
  if (t > newest || t < times_[oldest_]) return nullptr;
  // Without timestamp gaps the row sits `newest - t` slots back; otherwise
  // binary-search the held rows, which are in increasing time order.
  std::size_t i = size_;
  const auto back = static_cast<std::uint64_t>(newest - t);
  if (back < size_ && times_[slot(size_ - 1 - back)] == t) {
    i = size_ - 1 - back;
  } else {
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (times_[slot(mid)] < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == size_ || times_[slot(lo)] != t) return nullptr;
    i = lo;
  }
  return coeff_.data() + slot(i) * rows_;
}

std::size_t ProjectionWindow::memory_bytes() const noexcept {
  return times_.capacity() * sizeof(std::int64_t) +
         coeff_.capacity() * sizeof(double);
}

}  // namespace spca
