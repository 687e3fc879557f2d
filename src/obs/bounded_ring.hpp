// The one record buffer of the obs trace plane: a mutex-guarded ring of the
// most recent records under EventTrace, SpanLog and FlightRecorder. A push
// is one lock and one move; when the ring is full it overwrites the oldest
// record, and the lifetime count keeps growing, so a reader can tell how
// much was dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace spca {

template <typename T>
class BoundedRing final {
 public:
  /// The buffered records, oldest first, and the lifetime count taken
  /// under the same lock: `items[i]` was push number
  /// `recorded - items.size() + i` (counting from 0).
  struct Snapshot {
    std::vector<T> items;
    std::uint64_t recorded = 0;
  };

  explicit BoundedRing(std::size_t capacity) { reset(capacity); }

  void push(T value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
    } else {
      slots_[recorded_ % capacity_] = std::move(value);
    }
    ++recorded_;
  }

  [[nodiscard]] Snapshot snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Snapshot out;
    out.recorded = recorded_;
    out.items.reserve(slots_.size());
    // Until the ring first fills, slot order is push order; after that the
    // oldest record sits at the next insertion point.
    const auto oldest = static_cast<std::ptrdiff_t>(
        slots_.size() < capacity_ ? 0 : recorded_ % capacity_);
    out.items.insert(out.items.end(), slots_.begin() + oldest, slots_.end());
    out.items.insert(out.items.end(), slots_.begin(), slots_.begin() + oldest);
    return out;
  }

  /// Records pushed since construction or the last clear() or reset().
  [[nodiscard]] std::uint64_t recorded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
  }

  /// Drops every record and zeroes the lifetime count.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    recorded_ = 0;
  }

  /// clear(), and hold up to `capacity` records from now on.
  void reset(std::size_t capacity) {
    SPCA_EXPECTS(capacity >= 1);
    const std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    slots_.clear();
    // Slots past the first 1024 grow on demand: a 65,536-slot trace ring
    // reserved up front would cost megabytes in every process that records
    // a few spans.
    slots_.reserve(std::min<std::size_t>(capacity, 1024));
    recorded_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_ = 0;
  std::uint64_t recorded_ = 0;
  std::vector<T> slots_;  // insertion position = recorded_ % capacity_
};

}  // namespace spca
