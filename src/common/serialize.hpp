// Little-endian byte serialization helpers shared by the wire-message codec
// (dist/message) and the detector checkpoint format (core/sketch_detector).
//
// Only trivially copyable scalar types are supported; layouts are explicit
// at every call site so the formats stay greppable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace spca {

/// Appends scalars and scalar runs to a growing byte buffer.
class ByteWriter final {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void put_all(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<std::uint64_t>(values.size()));
    if (values.empty()) return;  // data() may be null; memcpy forbids that
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + values.size() * sizeof(T));
    std::memcpy(buffer_.data() + offset, values.data(),
                values.size() * sizeof(T));
  }

  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

/// Reads scalars back; throws ProtocolError on truncation.
class ByteReader final {
 public:
  explicit ByteReader(const std::vector<std::byte>& buffer)
      : buffer_(buffer) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > buffer_.size()) {
      throw ProtocolError("ByteReader: truncated buffer");
    }
    T value;
    std::memcpy(&value, buffer_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  /// Reads a u64 element count and rejects one that the rest of the buffer
  /// cannot hold at `min_item_bytes` per element, so a hostile count never
  /// reaches an allocation.
  [[nodiscard]] std::size_t get_count(std::size_t min_item_bytes) {
    const auto count = get<std::uint64_t>();
    // Divide instead of multiplying: `count * min_item_bytes` can wrap
    // around for a hostile count, which would pass the bounds check.
    if (count > remaining() / min_item_bytes) {
      throw ProtocolError("ByteReader: truncated array");
    }
    return static_cast<std::size_t>(count);
  }

  template <typename T>
  [[nodiscard]] std::vector<T> get_all() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t count = get_count(sizeof(T));
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), buffer_.data() + offset_, count * sizeof(T));
      offset_ += count * sizeof(T);
    }
    return values;
  }

  /// True once every byte has been consumed.
  [[nodiscard]] bool exhausted() const noexcept {
    return offset_ == buffer_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buffer_.size() - offset_;
  }

 private:
  const std::vector<std::byte>& buffer_;
  std::size_t offset_ = 0;
};

}  // namespace spca
