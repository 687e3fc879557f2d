#include "sketch/projection_batch.hpp"

#include <atomic>

#include "rand/projection_prf.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace spca {

namespace {

std::atomic<bool> g_force_scalar{false};

}  // namespace

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

void force_scalar_projection_kernel(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool projection_kernel_uses_avx2() noexcept {
  return cpu_supports_avx2() && !g_force_scalar.load(std::memory_order_relaxed);
}

namespace detail {

void fill_tow_row_scalar(std::uint64_t seed, std::int64_t t, std::size_t l,
                         double* row) noexcept {
  const std::uint64_t base = projection_prf_base(seed, t);
  for (std::size_t k = 0; k < l; ++k) {
    const std::uint64_t h = projection_prf_finish(base, k, 0);
    row[k] = (h & 1ULL) ? 1.0 : -1.0;
  }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) static inline __m256i mullo_epi64(
    __m256i a, __m256i b) noexcept {
  // AVX2 has no 64-bit multiply; compose it from 32x32->64 products:
  //   lo(a*b) = lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32)
  // exactly modulo 2^64 — which is exactly what the scalar multiply does.
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) static inline __m256i splitmix_mix_epi64(
    __m256i x) noexcept {
  // splitmix64_mix, four lanes at once, bit-identical to the scalar mixer.
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15ULL));
  x = mullo_epi64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
                  _mm256_set1_epi64x(0xbf58476d1ce4e5b9ULL));
  x = mullo_epi64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
                  _mm256_set1_epi64x(0x94d049bb133111ebULL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__attribute__((target("avx2"))) void fill_tow_row_avx2(
    std::uint64_t seed, std::int64_t t, std::size_t l, double* row) noexcept {
  const std::uint64_t base = projection_prf_base(seed, t);
  const __m256i base_v = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m256i one_bit = _mm256_set1_epi64x(1);
  const __m256d plus_one = _mm256_set1_pd(1.0);
  const __m256d minus_one = _mm256_set1_pd(-1.0);

  std::size_t k = 0;
  for (; k + 4 <= l; k += 4) {
    const __m256i kv = _mm256_set_epi64x(
        static_cast<long long>(k + 3), static_cast<long long>(k + 2),
        static_cast<long long>(k + 1), static_cast<long long>(k));
    // prf = mix(mix(base ^ k) ^ lane) with lane = 0.
    __m256i h = splitmix_mix_epi64(_mm256_xor_si256(base_v, kv));
    h = splitmix_mix_epi64(h);
    const __m256i bit = _mm256_and_si256(h, one_bit);
    const __m256d is_one =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(bit, one_bit));
    _mm256_storeu_pd(row + k, _mm256_blendv_pd(minus_one, plus_one, is_one));
  }
  for (; k < l; ++k) {
    const std::uint64_t h = projection_prf_finish(base, k, 0);
    row[k] = (h & 1ULL) ? 1.0 : -1.0;
  }
}

#endif  // defined(__x86_64__)

}  // namespace detail

void fill_tow_row(std::uint64_t seed, std::int64_t t, std::size_t l,
                  double* row) noexcept {
#if defined(__x86_64__)
  if (projection_kernel_uses_avx2()) {
    detail::fill_tow_row_avx2(seed, t, l, row);
    return;
  }
#endif
  detail::fill_tow_row_scalar(seed, t, l, row);
}

}  // namespace spca
