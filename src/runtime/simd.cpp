#include "runtime/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace ams::simd {

namespace detail {
// Implemented in simd_avx2.cpp (compiled with -mavx2 -mfma); only ever
// called behind a cpu_supports_avx2_fma() check.
void relu_avx2(const float* in, float* out, std::size_t n);
void clipped_relu_avx2(const float* in, float* out, std::size_t n, float ceiling);
void clamp_avx2(const float* in, float* out, std::size_t n, float lo, float hi);
void scale_clamp_avx2(const float* in, float* out, std::size_t n, float scale, float lo,
                      float hi);
void bn_normalize_avx2(const float* in, float* out, std::size_t n, float mean, float inv_std,
                       float gamma, float beta);
void quantize_unit_avx2(const float* in, float* out, std::size_t n, float levels);
void quantize_signed_avx2(const float* in, float* out, std::size_t n, float levels);
void encode_unit_u8_avx2(const float* in, std::uint8_t* out, std::size_t n, float levels);
}  // namespace detail

bool cpu_supports_avx2_fma() {
#if defined(AMSNET_HAVE_AVX2)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

namespace {
/// Best supported level not above `request`.
Level clamp_supported(Level request) {
    return request == Level::kAvx2 && cpu_supports_avx2_fma() ? Level::kAvx2 : Level::kScalar;
}
}  // namespace

Level detect_level() {
    if (const char* env = std::getenv("AMSNET_SIMD"); env != nullptr && *env != '\0') {
        if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
            std::strcmp(env, "0") == 0) {
            return Level::kScalar;
        }
        // "avx2" and unrecognized values alike auto-detect: AVX2 is the
        // only vector arm.
    }
    return clamp_supported(Level::kAvx2);
}

namespace {
std::atomic<Level>& level_slot() {
    static std::atomic<Level> level{detect_level()};
    return level;
}
}  // namespace

Level active_level() { return level_slot().load(std::memory_order_relaxed); }

void set_level(Level level) { level_slot().store(clamp_supported(level), std::memory_order_relaxed); }

const char* level_name(Level level) {
    switch (level) {
        case Level::kAvx2: return "avx2";
        case Level::kScalar: break;
    }
    return "scalar";
}

// ----- scalar reference arms -----
//
// These loops are copied expression-for-expression from the pre-SIMD
// call sites; AMSNET_SIMD=off must stay bit-exact with those revisions.

void relu(const float* in, float* out, std::size_t n) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) return detail::relu_avx2(in, out, n);
#endif
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] < 0.0f ? 0.0f : in[i];
}

void clipped_relu(const float* in, float* out, std::size_t n, float ceiling) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) return detail::clipped_relu_avx2(in, out, n, ceiling);
#endif
    for (std::size_t i = 0; i < n; ++i) {
        const float x = in[i];
        out[i] = x < 0.0f ? 0.0f : (x > ceiling ? ceiling : x);
    }
}

void clamp(const float* in, float* out, std::size_t n, float lo, float hi) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) return detail::clamp_avx2(in, out, n, lo, hi);
#endif
    for (std::size_t i = 0; i < n; ++i) out[i] = std::clamp(in[i], lo, hi);
}

void scale_clamp(const float* in, float* out, std::size_t n, float scale, float lo, float hi) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) {
        return detail::scale_clamp_avx2(in, out, n, scale, lo, hi);
    }
#endif
    for (std::size_t i = 0; i < n; ++i) out[i] = std::clamp(in[i] * scale, lo, hi);
}

void bn_normalize(const float* in, float* out, std::size_t n, float mean, float inv_std,
                  float gamma, float beta) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) {
        return detail::bn_normalize_avx2(in, out, n, mean, inv_std, gamma, beta);
    }
#endif
    for (std::size_t i = 0; i < n; ++i) out[i] = gamma * (in[i] - mean) * inv_std + beta;
}

void quantize_unit(const float* in, float* out, std::size_t n, float levels) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) return detail::quantize_unit_avx2(in, out, n, levels);
#endif
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::round(std::clamp(in[i], 0.0f, 1.0f) * levels) / levels;
    }
}

void quantize_signed(const float* in, float* out, std::size_t n, float levels) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) return detail::quantize_signed_avx2(in, out, n, levels);
#endif
    for (std::size_t i = 0; i < n; ++i) {
        const float mag = std::round(std::fabs(in[i]) * levels) / levels;
        out[i] = std::copysign(mag, in[i]);
    }
}

void encode_unit_u8(const float* in, std::uint8_t* out, std::size_t n, float levels) {
#if defined(AMSNET_HAVE_AVX2)
    if (active_level() == Level::kAvx2) return detail::encode_unit_u8_avx2(in, out, n, levels);
#endif
    const long hi = static_cast<long>(levels);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(std::clamp(std::lround(in[i] * levels), 0L, hi));
    }
}

}  // namespace ams::simd
