// The projection window: the coefficient rows r(t, 1..l) of a sketch
// owner's newest intervals, computed once per interval and shared by every
// flow the owner sketches — Fig. 4's "n pseudo random number generators
// shared by all flows among local monitors".
//
// A flow sketch stores no (x·r, r) payload for a *window singleton*: a
// one-element bucket among the sketch's newest R elements, where
//
//   R = min(n, the smallest suffix count at which Rule 2 lets a merge fire)
//     = min(n, ceil(20/eps))  (evaluated in the rule's own floating point)
//
// Rule 2 (n_A <= (eps/10) n_B with n_A >= 2) forbids any merge until R newer
// elements exist, so the newest R elements are always singletons, and
// FlowSketch rebuilds their payloads from (timestamp, mean) and this window.
//
// The owner (LocalMonitor, the NOC's hosted sketches, SketchDetector) holds
// the window by value and passes it by const reference into the FlowSketch
// calls that need coefficients. It is advanced only outside a parallel_for
// and read concurrently inside one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rand/projection_source.hpp"

namespace spca {

class ProjectionWindow final {
 public:
  /// Window for sketches of length `sketch_rows` over a variance histogram
  /// of window `window` (n) and approximation parameter `epsilon`. Holds
  /// R + 1 rows until reserve_block asks for more; allocates on first use.
  ProjectionWindow(const ProjectionSource& source, std::size_t sketch_rows,
                   std::uint64_t window, double epsilon);

  /// R for a histogram of window `window` and parameter `epsilon`.
  [[nodiscard]] static std::size_t span_for(std::uint64_t window,
                                            double epsilon);

  /// Makes room for a block of `block` rows advanced ahead of the sketches
  /// (LocalMonitor::absorb_block): capacity R + block, at least R + 1.
  /// Keeps the rows already held.
  void reserve_block(std::size_t block);

  /// Computes the row of interval `t` (later than every row held), evicting
  /// the oldest row when full.
  void advance(std::int64_t t);

  /// Drops every row and recomputes those of `timestamps` (strictly
  /// increasing): the restore path, which rebuilds the window from the PRF.
  void refill(std::span<const std::int64_t> timestamps);

  /// The l coefficients of interval `t`, or nullptr if the row is not held.
  [[nodiscard]] const double* row(std::int64_t t) const noexcept;

  [[nodiscard]] std::size_t span() const noexcept { return span_; }
  [[nodiscard]] std::size_t sketch_rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] const ProjectionSource& source() const noexcept {
    return source_;
  }

  /// Heap bytes of the coefficient rows and their timestamps.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Slot of the i-th oldest row held (i <= capacity_).
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t s = oldest_ + i;
    return s < capacity_ ? s : s - capacity_;
  }

  ProjectionSource source_;
  std::size_t rows_;
  std::uint64_t window_;
  double epsilon_;
  std::size_t span_;
  std::size_t capacity_;
  std::size_t oldest_ = 0;  // slot of the oldest row held
  std::size_t size_ = 0;    // rows held
  std::vector<std::int64_t> times_;  // per slot
  std::vector<double> coeff_;        // capacity_ x rows_, row-major
};

}  // namespace spca
