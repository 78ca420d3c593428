// 256-bit integer GEMM arm (vpmaddubsw / vpmaddwd), compiled with
// -mavx2 -mfma and only called behind cpu_supports_avx2_fma(). One
// 32-byte block of the packed int8 panel is exactly a panel group's
// 8 columns x 4 k-codes, and the per-128-bit-lane semantics of
// vpmaddubsw/vpmaddwd match the layout (low lane = columns 0-3, high
// lane = columns 4-7), so after the horizontal folds each of the 8 i32
// lanes is one column in order. Identical exact-integer results to the
// scalar arm.
#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/gemm_int.hpp"

namespace ams::kernels {

namespace {

float* strip_scratch(std::size_t bytes) {
    return tls_pack_buffers().ensure(GemmPackBuffers::kPackA, (bytes + 3) / 4);
}

inline void store_cols(std::int32_t* crow, const __m256i acc, std::size_t cols) {
    if (cols == kIntNr) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc);
        return;
    }
    alignas(32) std::int32_t tmp[kIntNr];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
    std::memcpy(crow, tmp, cols * sizeof(std::int32_t));
}

}  // namespace

void gemm_s8u8_rows_avx2(const std::int8_t* a, const std::uint8_t* panel, std::int32_t* c,
                         std::size_t row_begin, std::size_t row_end, std::size_t k,
                         std::size_t n) {
    const std::size_t k4 = round_up_pow2(k, 4);
    const std::size_t blocks = k4 / 4;
    const std::size_t groups = (n + kIntNr - 1) / kIntNr;
    auto* strip = reinterpret_cast<std::int8_t*>(strip_scratch(kIntMr * k4));
    const __m256i ones = _mm256_set1_epi16(1);
    for (std::size_t i0 = row_begin; i0 < row_end; i0 += kIntMr) {
        const std::size_t rows = std::min(kIntMr, row_end - i0);
        pack_a_i8(a + i0 * k, rows, k, strip);
        const auto* strip32 = reinterpret_cast<const std::int32_t*>(strip);
        // Two panel groups per pass: 8 independent accumulator chains
        // hide the madd latency the 4-chain single-group loop exposes,
        // and each A broadcast feeds both groups.
        std::size_t g = 0;
        for (; g + 2 <= groups; g += 2) {
            const std::uint8_t* bp0 = panel + g * k4 * kIntNr;
            const std::uint8_t* bp1 = bp0 + k4 * kIntNr;
            __m256i acc0[kIntMr];
            __m256i acc1[kIntMr];
            for (std::size_t r = 0; r < kIntMr; ++r) {
                acc0[r] = _mm256_setzero_si256();
                acc1[r] = _mm256_setzero_si256();
            }
            for (std::size_t kb = 0; kb < blocks; ++kb) {
                const __m256i b0 =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0 + kb * 32));
                const __m256i b1 =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp1 + kb * 32));
                for (std::size_t r = 0; r < kIntMr; ++r) {
                    const __m256i av = _mm256_set1_epi32(strip32[kb * kIntMr + r]);
                    acc0[r] = _mm256_add_epi32(
                        acc0[r], _mm256_madd_epi16(_mm256_maddubs_epi16(b0, av), ones));
                    acc1[r] = _mm256_add_epi32(
                        acc1[r], _mm256_madd_epi16(_mm256_maddubs_epi16(b1, av), ones));
                }
            }
            const std::size_t cols1 = std::min(kIntNr, n - (g + 1) * kIntNr);
            for (std::size_t r = 0; r < rows; ++r) {
                store_cols(c + (i0 + r) * n + g * kIntNr, acc0[r], kIntNr);
                store_cols(c + (i0 + r) * n + (g + 1) * kIntNr, acc1[r], cols1);
            }
        }
        for (; g < groups; ++g) {
            const std::uint8_t* bp = panel + g * k4 * kIntNr;
            __m256i acc[kIntMr];
            for (auto& row_acc : acc) row_acc = _mm256_setzero_si256();
            for (std::size_t kb = 0; kb < blocks; ++kb) {
                const __m256i b0 =
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + kb * 32));
                for (std::size_t r = 0; r < kIntMr; ++r) {
                    const __m256i av = _mm256_set1_epi32(strip32[kb * kIntMr + r]);
                    acc[r] = _mm256_add_epi32(
                        acc[r], _mm256_madd_epi16(_mm256_maddubs_epi16(b0, av), ones));
                }
            }
            const std::size_t cols = std::min(kIntNr, n - g * kIntNr);
            for (std::size_t r = 0; r < rows; ++r) {
                store_cols(c + (i0 + r) * n + g * kIntNr, acc[r], cols);
            }
        }
    }
}

}  // namespace ams::kernels
