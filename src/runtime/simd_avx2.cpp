// AVX2/FMA arms of the elementwise primitives in runtime/simd.hpp.
//
// This translation unit is compiled with -mavx2 -mfma (see
// runtime/CMakeLists.txt) and must therefore contain no code that runs
// unconditionally at startup: everything here is reached only through
// the dispatch in simd.cpp after a cpuid check.
//
// Tails are handled with masked loads/stores so every element — body or
// remainder — goes through the same vector expression; results are
// independent of n's divisibility and of how callers chunk ranges.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(AMSNET_HAVE_AVX2)

#include <immintrin.h>

namespace ams::simd::detail {

namespace {

// mask_for(r) with r in [0, 8]: first r lanes all-ones (maskload/maskstore
// select on the top bit of each 32-bit lane).
alignas(32) constexpr std::int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                     0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i mask_for(std::size_t r) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kMaskTable + 8 - r));
}

/// Applies `op` ( __m256 -> __m256 ) over [0, n) with a masked tail.
template <typename Op>
inline void map8(const float* in, float* out, std::size_t n, Op op) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(out + i, op(_mm256_loadu_ps(in + i)));
    }
    if (const std::size_t r = n - i; r != 0) {
        const __m256i m = mask_for(r);
        _mm256_maskstore_ps(out + i, m, op(_mm256_maskload_ps(in + i, m)));
    }
}

}  // namespace

void relu_avx2(const float* in, float* out, std::size_t n) {
    const __m256 zero = _mm256_setzero_ps();
    map8(in, out, n, [zero](__m256 x) { return _mm256_max_ps(x, zero); });
}

void clipped_relu_avx2(const float* in, float* out, std::size_t n, float ceiling) {
    const __m256 zero = _mm256_setzero_ps();
    const __m256 hi = _mm256_set1_ps(ceiling);
    map8(in, out, n,
         [zero, hi](__m256 x) { return _mm256_min_ps(_mm256_max_ps(x, zero), hi); });
}

void clamp_avx2(const float* in, float* out, std::size_t n, float lo, float hi) {
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vhi = _mm256_set1_ps(hi);
    map8(in, out, n,
         [vlo, vhi](__m256 x) { return _mm256_min_ps(_mm256_max_ps(x, vlo), vhi); });
}

void scale_clamp_avx2(const float* in, float* out, std::size_t n, float scale, float lo,
                      float hi) {
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vhi = _mm256_set1_ps(hi);
    map8(in, out, n, [vs, vlo, vhi](__m256 x) {
        return _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(x, vs), vlo), vhi);
    });
}

void bn_normalize_avx2(const float* in, float* out, std::size_t n, float mean, float inv_std,
                       float gamma, float beta) {
    // (x - mean) * (gamma * inv_std) + beta, folded into one FMA.
    const __m256 vm = _mm256_set1_ps(mean);
    const __m256 vs = _mm256_set1_ps(gamma * inv_std);
    const __m256 vb = _mm256_set1_ps(beta);
    map8(in, out, n, [vm, vs, vb](__m256 x) {
        return _mm256_fmadd_ps(_mm256_sub_ps(x, vm), vs, vb);
    });
}

void quantize_unit_avx2(const float* in, float* out, std::size_t n, float levels) {
    // round-half-away-from-zero on a non-negative argument == floor(x+0.5).
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 vn = _mm256_set1_ps(levels);
    map8(in, out, n, [zero, one, half, vn](__m256 x) {
        const __m256 c = _mm256_min_ps(_mm256_max_ps(x, zero), one);
        const __m256 r = _mm256_floor_ps(_mm256_fmadd_ps(c, vn, half));
        return _mm256_div_ps(r, vn);
    });
}

void quantize_signed_avx2(const float* in, float* out, std::size_t n, float levels) {
    const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256 sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000u));
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 vn = _mm256_set1_ps(levels);
    map8(in, out, n, [abs_mask, sign_mask, half, vn](__m256 x) {
        const __m256 ax = _mm256_and_ps(x, abs_mask);
        const __m256 mag =
            _mm256_div_ps(_mm256_floor_ps(_mm256_fmadd_ps(ax, vn, half)), vn);
        return _mm256_or_ps(mag, _mm256_and_ps(x, sign_mask));
    });
}

namespace {

/// Exact std::lround of each lane (|t| far below 2^31): cvtps_epi32
/// rounds half-to-even under the default MXCSR mode, so the only lanes
/// that can disagree with lround's half-away-from-zero are exact .5
/// ties. t - float(r) is computed exactly there (Sterbenz), so comparing
/// it against +/-0.5 identifies precisely the ties that rounded toward
/// zero, and one lane-masked add pushes them outward.
inline __m256i lround_epi32(__m256 t) {
    const __m256i r = _mm256_cvtps_epi32(t);
    const __m256 d = _mm256_sub_ps(t, _mm256_cvtepi32_ps(r));
    const __m256 zero = _mm256_setzero_ps();
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 nhalf = _mm256_set1_ps(-0.5f);
    const __m256 up = _mm256_and_ps(_mm256_cmp_ps(d, half, _CMP_EQ_OQ),
                                    _mm256_cmp_ps(t, zero, _CMP_GT_OQ));
    const __m256 dn = _mm256_and_ps(_mm256_cmp_ps(d, nhalf, _CMP_EQ_OQ),
                                    _mm256_cmp_ps(t, zero, _CMP_LT_OQ));
    return _mm256_add_epi32(_mm256_sub_epi32(r, _mm256_castps_si256(up)),
                            _mm256_castps_si256(dn));
}

/// clamp(lround(x * levels), lo, hi) per lane, clamped in the integer
/// domain exactly like the scalar arm.
inline __m256i encode_epi32(__m256 x, __m256 vn, __m256i lo, __m256i hi) {
    const __m256i r = lround_epi32(_mm256_mul_ps(x, vn));
    return _mm256_min_epi32(_mm256_max_epi32(r, lo), hi);
}

}  // namespace

void encode_unit_u8_avx2(const float* in, std::uint8_t* out, std::size_t n, float levels) {
    const __m256 vn = _mm256_set1_ps(levels);
    const __m256i lo = _mm256_setzero_si256();
    const __m256i hi = _mm256_set1_epi32(static_cast<std::int32_t>(levels));
    // Lane order after packs/packus interleaves the four source vectors'
    // 128-bit halves; one cross-lane dword permute restores i-order.
    const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i a = encode_epi32(_mm256_loadu_ps(in + i), vn, lo, hi);
        const __m256i b = encode_epi32(_mm256_loadu_ps(in + i + 8), vn, lo, hi);
        const __m256i c = encode_epi32(_mm256_loadu_ps(in + i + 16), vn, lo, hi);
        const __m256i d = encode_epi32(_mm256_loadu_ps(in + i + 24), vn, lo, hi);
        const __m256i w = _mm256_packus_epi16(_mm256_packs_epi32(a, b),
                                              _mm256_packs_epi32(c, d));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_permutevar8x32_epi32(w, fix));
    }
    const long hil = static_cast<long>(levels);
    for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(std::clamp(std::lround(in[i] * levels), 0L, hil));
    }
}

}  // namespace ams::simd::detail

#endif  // AMSNET_HAVE_AVX2
