// Portable SIMD wrapper for the columnar serving kernels (DESIGN §12).
//
// One ISA is selected at compile time — AVX2 (4 doubles/vector, hardware
// gathers), SSE2 (2 doubles, emulated gathers), NEON (2 doubles, emulated
// gathers) — with a scalar build when none is available. The wrapper
// deliberately exposes only operations whose per-lane semantics are
// IEEE-754-identical to the scalar code they replace: lane-wise add / mul,
// ordered comparisons (NaN compares false, exactly like a scalar `<=`),
// NaN tests via unordered self-compare, bit blends, and gathers that read
// the same addresses the scalar loop would. No FMA contraction,
// no reassociation, no approximate math: a vectorized kernel built on
// this header produces bit-identical results to its scalar twin, which is
// what lets serve::FlatForest dispatch between the two freely.
//
// Runtime policy: `enabled()` consults LUMOS_SIMD once ("off"/"0" forces
// the scalar path; anything else, or unset, allows the vector path) and
// tests/benches can override in-process via set_enabled(). The kill
// switch exists so the scalar fallback stays exercised (ctest label
// `simd`) and so A/B benches (BM_ColumnarWalkSimd) measure both paths in
// one binary.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define LUMOS_SIMD_AVX2 1
#elif defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#include <emmintrin.h>
#define LUMOS_SIMD_SSE2 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define LUMOS_SIMD_NEON 1
#endif

namespace lumos::simd {

/// True when the vector kernels should run: the compile-time ISA offers
/// more than one lane AND the LUMOS_SIMD kill switch is not "off". Cached
/// after the first call; never consulted inside a kernel loop.
[[nodiscard]] bool enabled() noexcept;

/// Test/bench override for the runtime switch (does not touch the
/// environment). Passing `true` cannot widen past the compiled ISA: on a
/// scalar build enabled() stays false.
void set_enabled(bool on) noexcept;

/// The compile-time ISA, for logs and bench context.
[[nodiscard]] const char* isa_name() noexcept;

#if defined(LUMOS_SIMD_AVX2)

inline constexpr std::size_t kDoubleWidth = 4;

using VDouble = __m256d;
using VInt32 = __m128i;  ///< one 32-bit lane per double lane

inline VDouble broadcast_f64(double v) noexcept { return _mm256_set1_pd(v); }
inline VInt32 broadcast_i32(std::int32_t v) noexcept {
  return _mm_set1_epi32(v);
}
inline VInt32 load_i32(const std::int32_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store_i32(std::int32_t* p, VInt32 v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline VDouble load_f64(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void store_f64(double* p, VDouble v) noexcept {
  _mm256_storeu_pd(p, v);
}

/// out[l] = base[idx[l]] where mask_pd lane is all-ones; other lanes 0.0.
/// Masked-off lanes perform NO memory access (safe for invalid indices).
inline VDouble gather_f64(const double* base, VInt32 idx,
                          VDouble mask_pd) noexcept {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, mask_pd, 8);
}

/// out[l] = base[idx[l]] for every lane (indices must all be in bounds).
inline VInt32 gather_i32(const std::int32_t* base, VInt32 idx) noexcept {
  return _mm_i32gather_epi32(base, idx, 4);
}

inline VDouble add(VDouble a, VDouble b) noexcept { return _mm256_add_pd(a, b); }
inline VDouble mul(VDouble a, VDouble b) noexcept { return _mm256_mul_pd(a, b); }

/// Ordered a <= b: NaN in either operand gives a false (zero) lane,
/// matching the scalar `v <= threshold` the tree walk uses.
inline VDouble cmp_le(VDouble a, VDouble b) noexcept {
  return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
}
/// All-ones lane where a is NaN (unordered self-compare).
inline VDouble is_nan(VDouble a) noexcept {
  return _mm256_cmp_pd(a, a, _CMP_UNORD_Q);
}
inline VDouble bit_and(VDouble a, VDouble b) noexcept {
  return _mm256_and_pd(a, b);
}
inline VDouble bit_andnot(VDouble mask, VDouble a) noexcept {
  return _mm256_andnot_pd(mask, a);  // (~mask) & a
}
inline VDouble bit_or(VDouble a, VDouble b) noexcept {
  return _mm256_or_pd(a, b);
}
/// mask lane all-ones -> a, else b. Bitwise select; mask lanes must be
/// all-ones or all-zeros.
inline VDouble blend_f64(VDouble mask, VDouble a, VDouble b) noexcept {
  return _mm256_blendv_pd(b, a, mask);
}
inline VInt32 blend_i32(VDouble mask_pd, VInt32 a, VInt32 b) noexcept {
  // Narrow the 64-bit lane masks to 32-bit lane masks (both halves of a
  // double lane's mask are identical, so any 32-bit half works).
  const __m128i lo = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask_pd),
                                  _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
  return _mm_blendv_epi8(b, a, lo);
}
/// Widen 32-bit lane masks to 64-bit double lane masks.
inline VDouble mask_widen(VInt32 mask32) noexcept {
  return _mm256_castsi256_pd(_mm256_cvtepi32_epi64(mask32));
}

inline VInt32 add_i32(VInt32 a, VInt32 b) noexcept {
  return _mm_add_epi32(a, b);
}
inline VInt32 sub_i32(VInt32 a, VInt32 b) noexcept {
  return _mm_sub_epi32(a, b);
}
inline VInt32 mul_i32(VInt32 a, VInt32 b) noexcept {
  return _mm_mullo_epi32(a, b);
}
inline VInt32 and_i32(VInt32 a, VInt32 b) noexcept {
  return _mm_and_si128(a, b);
}
/// All-ones lane where a > b (signed).
inline VInt32 cmp_gt_i32(VInt32 a, VInt32 b) noexcept {
  return _mm_cmpgt_epi32(a, b);
}
/// Arithmetic shift right by 31: lane becomes all-ones when the sign/top
/// bit is set, all-zeros otherwise.
inline VInt32 topbit_mask_i32(VInt32 a) noexcept {
  return _mm_srai_epi32(a, 31);
}
/// One bit per double lane (4 on AVX2); 0 = every lane mask is zero.
inline int movemask(VDouble mask) noexcept { return _mm256_movemask_pd(mask); }
inline int movemask_i32(VInt32 mask) noexcept {
  return _mm_movemask_ps(_mm_castsi128_ps(mask));
}

#elif defined(LUMOS_SIMD_SSE2) || defined(LUMOS_SIMD_NEON)

inline constexpr std::size_t kDoubleWidth = 2;

#if defined(LUMOS_SIMD_SSE2)
using VDouble = __m128d;
#else
using VDouble = float64x2_t;
#endif

/// Two 32-bit lanes, one per double lane. SSE2/NEON have no 64-bit
/// gathers keyed by 32-bit indices, so indices live in a tiny struct and
/// gathers are per-lane scalar loads — still branch-free at the kernel
/// level, and the blend/compare structure is shared with the AVX2 path.
struct VInt32 {
  std::int32_t v[2];
};

inline VInt32 broadcast_i32(std::int32_t x) noexcept { return {{x, x}}; }
inline VInt32 load_i32(const std::int32_t* p) noexcept {
  return {{p[0], p[1]}};
}
inline void store_i32(std::int32_t* p, VInt32 a) noexcept {
  p[0] = a.v[0];
  p[1] = a.v[1];
}
inline VInt32 add_i32(VInt32 a, VInt32 b) noexcept {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
}
inline VInt32 sub_i32(VInt32 a, VInt32 b) noexcept {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}};
}
inline VInt32 mul_i32(VInt32 a, VInt32 b) noexcept {
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1]}};
}
inline VInt32 and_i32(VInt32 a, VInt32 b) noexcept {
  return {{a.v[0] & b.v[0], a.v[1] & b.v[1]}};
}
inline VInt32 cmp_gt_i32(VInt32 a, VInt32 b) noexcept {
  return {{a.v[0] > b.v[0] ? -1 : 0, a.v[1] > b.v[1] ? -1 : 0}};
}
inline VInt32 topbit_mask_i32(VInt32 a) noexcept {
  return {{a.v[0] >> 31, a.v[1] >> 31}};
}
inline int movemask_i32(VInt32 a) noexcept {
  return ((a.v[0] < 0) ? 1 : 0) | ((a.v[1] < 0) ? 2 : 0);
}

#if defined(LUMOS_SIMD_SSE2)
inline VDouble broadcast_f64(double v) noexcept { return _mm_set1_pd(v); }
inline VDouble load_f64(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void store_f64(double* p, VDouble v) noexcept { _mm_storeu_pd(p, v); }
inline VDouble add(VDouble a, VDouble b) noexcept { return _mm_add_pd(a, b); }
inline VDouble mul(VDouble a, VDouble b) noexcept { return _mm_mul_pd(a, b); }
inline VDouble cmp_le(VDouble a, VDouble b) noexcept {
  return _mm_cmple_pd(a, b);
}
inline VDouble is_nan(VDouble a) noexcept { return _mm_cmpunord_pd(a, a); }
inline VDouble bit_and(VDouble a, VDouble b) noexcept {
  return _mm_and_pd(a, b);
}
inline VDouble bit_andnot(VDouble mask, VDouble a) noexcept {
  return _mm_andnot_pd(mask, a);
}
inline VDouble bit_or(VDouble a, VDouble b) noexcept {
  return _mm_or_pd(a, b);
}
inline VDouble blend_f64(VDouble mask, VDouble a, VDouble b) noexcept {
  return _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b));
}
inline int movemask(VDouble mask) noexcept { return _mm_movemask_pd(mask); }
inline VDouble mask_widen(VInt32 mask32) noexcept {
  return _mm_castsi128_pd(_mm_set_epi32(mask32.v[1], mask32.v[1],
                                        mask32.v[0], mask32.v[0]));
}
inline VDouble gather_f64(const double* base, VInt32 idx,
                          VDouble mask_pd) noexcept {
  const int mm = movemask(mask_pd);
  return _mm_set_pd((mm & 2) ? base[idx.v[1]] : 0.0,
                    (mm & 1) ? base[idx.v[0]] : 0.0);
}
inline VInt32 gather_i32(const std::int32_t* base, VInt32 idx) noexcept {
  return {{base[idx.v[0]], base[idx.v[1]]}};
}
#else  // NEON
inline VDouble broadcast_f64(double v) noexcept { return vdupq_n_f64(v); }
inline VDouble load_f64(const double* p) noexcept { return vld1q_f64(p); }
inline void store_f64(double* p, VDouble v) noexcept { vst1q_f64(p, v); }
inline VDouble add(VDouble a, VDouble b) noexcept { return vaddq_f64(a, b); }
inline VDouble mul(VDouble a, VDouble b) noexcept { return vmulq_f64(a, b); }
inline VDouble cmp_le(VDouble a, VDouble b) noexcept {
  return vreinterpretq_f64_u64(vcleq_f64(a, b));
}
inline VDouble is_nan(VDouble a) noexcept {
  // NaN != NaN: lane is NaN exactly when the equality self-compare fails.
  return vreinterpretq_f64_u32(
      vmvnq_u32(vreinterpretq_u32_u64(vceqq_f64(a, a))));
}
inline VDouble bit_and(VDouble a, VDouble b) noexcept {
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}
inline VDouble bit_andnot(VDouble mask, VDouble a) noexcept {
  return vreinterpretq_f64_u64(
      vbicq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(mask)));
}
inline VDouble bit_or(VDouble a, VDouble b) noexcept {
  return vreinterpretq_f64_u64(
      vorrq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}
inline VDouble blend_f64(VDouble mask, VDouble a, VDouble b) noexcept {
  return vbslq_f64(vreinterpretq_u64_f64(mask), a, b);
}
inline int movemask(VDouble mask) noexcept {
  const uint64x2_t m = vreinterpretq_u64_f64(mask);
  return static_cast<int>((vgetq_lane_u64(m, 0) >> 63) |
                          ((vgetq_lane_u64(m, 1) >> 63) << 1));
}
inline VDouble mask_widen(VInt32 mask32) noexcept {
  const int64x2_t wide = {static_cast<std::int64_t>(mask32.v[0]),
                          static_cast<std::int64_t>(mask32.v[1])};
  return vreinterpretq_f64_s64(wide);
}
inline VDouble gather_f64(const double* base, VInt32 idx,
                          VDouble mask_pd) noexcept {
  const int mm = movemask(mask_pd);
  const double lane0 = (mm & 1) ? base[idx.v[0]] : 0.0;
  const double lane1 = (mm & 2) ? base[idx.v[1]] : 0.0;
  const float64x2_t out = {lane0, lane1};
  return out;
}
inline VInt32 gather_i32(const std::int32_t* base, VInt32 idx) noexcept {
  return {{base[idx.v[0]], base[idx.v[1]]}};
}
#endif

/// blend_i32: mask comes from the double-lane comparisons.
inline VInt32 blend_i32(VDouble mask_pd, VInt32 a, VInt32 b) noexcept {
  const int mm = movemask(mask_pd);
  return {{(mm & 1) ? a.v[0] : b.v[0], (mm & 2) ? a.v[1] : b.v[1]}};
}

#else  // scalar build: no vector ISA detected

inline constexpr std::size_t kDoubleWidth = 1;

#endif

}  // namespace lumos::simd
