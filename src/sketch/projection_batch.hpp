// Batched coefficient-row kernels for the projection window.
//
// Each interval the sketch owner's ProjectionWindow computes the row
// r_{t,k} for k = 0..l-1 once for all its flows. For the tug-of-war scheme
// every r_{t,k} is ±1 derived from the keyed PRF, so the whole row is
// integer work plus a sign select — ideal SIMD shape. This module provides
// a scalar kernel and an AVX2 kernel behind runtime CPU-feature dispatch;
// both produce bit-identical doubles (the PRF is exact integer arithmetic),
// so enabling SIMD can never change a trajectory.
//
// The non-tug-of-war schemes (Gaussian, sparse) involve transcendental
// transforms whose vectorization would not be bit-stable; they always take
// the scalar ProjectionSource::value path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spca {

/// True iff this build can run the AVX2 kernel on this CPU (compile-time
/// support and runtime CPUID probe).
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// Forces the scalar kernel even where AVX2 is available (tests assert
/// bit-equality across the dispatch). Not thread-safe against concurrent
/// kernel invocations; flip it only around single-threaded test sections.
void force_scalar_projection_kernel(bool force) noexcept;

/// True iff the next kernel invocation will use AVX2.
[[nodiscard]] bool projection_kernel_uses_avx2() noexcept;

/// Fills the l tug-of-war coefficients of interval `t`: sign bits come from
/// projection_prf(seed, t, k, 0), exactly like ProjectionSource::value on
/// the kTugOfWar path.
void fill_tow_row(std::uint64_t seed, std::int64_t t, std::size_t l,
                  double* row) noexcept;

namespace detail {
/// The two kernels, exposed for the bit-equality tests.
void fill_tow_row_scalar(std::uint64_t seed, std::int64_t t, std::size_t l,
                         double* row) noexcept;
#if defined(__x86_64__)
void fill_tow_row_avx2(std::uint64_t seed, std::int64_t t, std::size_t l,
                       double* row) noexcept;
#endif
}  // namespace detail

}  // namespace spca
