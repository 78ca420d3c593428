// Packed integer GEMM microkernels for the quantized numeric domain.
//
// The DoReFa grids give every operand a small integer code
// (quant/quantized_view.hpp); these kernels multiply the codes directly
// and hand back the exact int32 accumulator:
//
//   acc[i][j] = sum_k a[i][k] * b[k][j]        (integer, no rounding)
//
// so requantization is a single float multiply per output
// (compile/executor epilogue). There is one lane — int8 weight codes x
// uint8 activation codes — with two arms: the scalar reference and the
// 256-bit AVX2 kernel (`vpmaddubsw`/`vpmaddwd`). Unlike the fp32
// kernels, both arms produce bit-identical results at any thread count,
// because integer addition is exact and associative. The scalar arm
// therefore *is* the reference semantics of the vector arm, not an
// approximation of it.
//
// Arm selection follows the AMSNET_SIMD dispatcher: kAvx2 uses the
// packed 256-bit kernel, kScalar (AMSNET_SIMD=off) the portable loops.
// Whether integer GEMM runs at all is a *separate* knob,
// AMSNET_GEMM_INT (see GemmIntMode), consumed by the compiler.
//
// Operand contracts (enforced by the compiler's eligibility rules):
//   * gemm_s8u8 — A signed codes |a| <= 127, B unsigned codes b <= 127
//     (sign-magnitude grids of <= 8-bit operands). The i16 intermediate
//     of vpmaddubsw then never saturates: 2 * 127 * 127 < 2^15.
//   * int_accumulator_safe(max|a|, max|b|, k) must hold for the int32
//     accumulator.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm_kernels.hpp"

namespace ams {

/// Which integer GEMM path the compiler may select (AMSNET_GEMM_INT).
enum class GemmIntMode {
    kOff,   ///< every GEMM stays fp32 (default; bit-identical plans)
    kInt8,  ///< int8 codes where eligible, fp32 elsewhere
};

[[nodiscard]] const char* gemm_int_mode_name(GemmIntMode mode);

/// Parses "off" / "int8"; nullptr, empty, or any other text maps to kOff.
[[nodiscard]] GemmIntMode parse_gemm_int_mode(const char* text);

/// parse_gemm_int_mode(getenv("AMSNET_GEMM_INT")) — re-read every call.
[[nodiscard]] GemmIntMode env_gemm_int_mode();

/// True when a K-long dot of codes bounded by max_a * max_b cannot
/// overflow the int32 accumulator (kept <= 2^30 for 2x headroom).
[[nodiscard]] constexpr bool int_accumulator_safe(std::size_t max_a, std::size_t max_b,
                                                  std::size_t k) {
    constexpr std::uint64_t kBound = 1ull << 30;
    return static_cast<std::uint64_t>(max_a) * max_b * k <= kBound;
}

/// C (MxN, int32) = A (MxK, int8 codes) * B (KxN, uint8 codes).
/// `pack` supplies the packed-B panel scratch (nullptr: thread-local).
void gemm_s8u8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c, std::size_t m,
               std::size_t k, std::size_t n, GemmPackBuffers* pack = nullptr);

// ----- packed-panel geometry (AVX2 arm) -----
//
// B panels mirror the fp32 packing scheme at byte width: column groups
// of kIntNr = 8, zero-padded in both K and N, interleaved in k-blocks
// of 4 (one vpmaddubsw feeds 4 products per column). Within a k-block
// the 8 columns' codes are contiguous, so one 32-byte YMM load covers
// all 8.

inline constexpr std::size_t kIntMr = 4;  ///< A rows per microkernel tile
inline constexpr std::size_t kIntNr = 8;  ///< B columns per panel group

[[nodiscard]] constexpr std::size_t round_up_pow2(std::size_t v, std::size_t a) {
    return (v + a - 1) & ~(a - 1);
}

/// Pack-buffer floats for the int8 B panel: round_up(N,8) * round_up(K,4)
/// bytes of codes, rounded up to whole floats.
[[nodiscard]] constexpr std::size_t packed_b_i8_floats(std::size_t k, std::size_t n) {
    return (round_up_pow2(n, kIntNr) * round_up_pow2(k, 4) + 3) / 4;
}

namespace kernels {

/// Packs B (KxN row-major codes) into the int8 panel layout:
/// panel[g*K4*8 + kb*32 + c*4 + t] = b[(4kb+t)*n + 8g+c], zero-padded.
void pack_b_i8(const std::uint8_t* b, std::size_t k, std::size_t n, std::uint8_t* panel);

/// Packs `rows` (<= kIntMr) rows of A into the 4-k interleaved strip
/// strip[kb*16 + r*4 + t] = a[r*k + 4kb+t]; missing rows/k zero-padded.
void pack_a_i8(const std::int8_t* a, std::size_t rows, std::size_t k, std::int8_t* strip);

// Row-range AVX2 arm over a pre-packed B panel (gemm_int_avx2.cpp; only
// called behind cpu_supports_avx2_fma()). Packs its own thread-local A
// strips.
void gemm_s8u8_rows_avx2(const std::int8_t* a, const std::uint8_t* panel, std::int32_t* c,
                         std::size_t row_begin, std::size_t row_end, std::size_t k,
                         std::size_t n);

}  // namespace kernels

}  // namespace ams
