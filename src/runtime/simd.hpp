// SIMD dispatch layer: runtime CPU-feature selection between the scalar
// reference kernels and vectorized (AVX2/FMA) implementations.
//
// Every hot per-element loop in the library funnels through the
// primitives declared here (the GEMM microkernels live separately in
// tensor/gemm_kernels.hpp but share this dispatch). Contract:
//
//   * The *scalar* arm reproduces the pre-SIMD loops expression for
//     expression, so `AMSNET_SIMD=off` is bit-exact with the scalar-only
//     revisions of the library.
//   * The *AVX2* arm may differ in float realizations (FMA, reassociated
//     reductions, floor(x+0.5) rounding) — a one-time, documented change
//     (EXPERIMENTS.md "SIMD note"). Within one binary + one AMSNET_SIMD
//     setting, results are still bit-identical at any thread count:
//     every primitive computes each element independently of how the
//     index range is chunked.
//   * Dispatch is resolved once (env + cpuid) and cached; tests and
//     benches can flip arms explicitly with set_level().
//
// Environment: AMSNET_SIMD = off|scalar|0 forces the scalar arm, "avx2"
// requests the vector arm (silently clamped to scalar when the CPU lacks
// it), anything else / unset auto-detects.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ams::simd {

enum class Level {
    kScalar,  ///< portable reference loops (always available)
    kAvx2,    ///< AVX2 + FMA vector kernels (x86-64 only)
};

/// The arm every dispatching kernel currently uses. First call resolves
/// AMSNET_SIMD + cpuid and caches the result; later calls are one
/// relaxed atomic load.
[[nodiscard]] Level active_level();

/// Overrides the active arm (tests / benches comparing both). A kAvx2
/// request on a CPU without AVX2/FMA is clamped to kScalar.
void set_level(Level level);

/// Re-runs the environment + cpuid resolution (what active_level() was
/// initialized with, ignoring any set_level override).
[[nodiscard]] Level detect_level();

/// True when the CPU (and this build) can run the AVX2/FMA arm.
[[nodiscard]] bool cpu_supports_avx2_fma();

[[nodiscard]] const char* level_name(Level level);

// ----- vectorized elementwise primitives -----
//
// All primitives allow in == out (in-place) and any n; unaligned
// pointers are fine. Each element depends only on its own input, so the
// result is independent of chunking or thread count.

/// out[i] = in[i] < 0 ? 0 : in[i]
void relu(const float* in, float* out, std::size_t n);

/// out[i] = clamp(in[i], 0, ceiling)
void clipped_relu(const float* in, float* out, std::size_t n, float ceiling);

/// out[i] = clamp(in[i], lo, hi)
void clamp(const float* in, float* out, std::size_t n, float lo, float hi);

/// out[i] = clamp(in[i] * scale, lo, hi)
void scale_clamp(const float* in, float* out, std::size_t n, float scale, float lo, float hi);

/// out[i] = gamma * (in[i] - mean) * inv_std + beta
/// (BatchNorm2d inference affine for one channel row.)
void bn_normalize(const float* in, float* out, std::size_t n, float mean, float inv_std,
                  float gamma, float beta);

/// out[i] = round(clamp(in[i], 0, 1) * levels) / levels
/// (DoReFa unit-interval fake-quant; scalar arm uses std::round, the
/// AVX2 arm floor(x + 0.5) — identical except on half-ulp edge cases.)
void quantize_unit(const float* in, float* out, std::size_t n, float levels);

/// out[i] = copysign(round(|in[i]| * levels) / levels, in[i])
/// (Sign-magnitude fake-quant used by QuantInput; same rounding note.)
void quantize_signed(const float* in, float* out, std::size_t n, float levels);

// ----- grid-code encoders (integer numeric domain) -----
//
// out[i] = narrow(clamp(lround(in[i] * levels), lo, hi)) with the
// integer range implied by the signature. Unlike quantize_unit, the
// AVX2 arm of this is bit-identical to the scalar arm on EVERY input
// (exact lround, realized as round-to-nearest-even plus a half-ulp tie
// fixup): the packed integer GEMM path promises cross-arm bit-identity,
// so its operand encoding cannot be allowed half-ulp drift.

/// Unsigned unit-grid codes, levels <= 255: clamp range [0, levels].
void encode_unit_u8(const float* in, std::uint8_t* out, std::size_t n, float levels);

}  // namespace ams::simd
