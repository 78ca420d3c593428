#include "tensor/gemm_int.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/simd.hpp"

namespace ams {

const char* gemm_int_mode_name(GemmIntMode mode) {
    switch (mode) {
        case GemmIntMode::kInt8: return "int8";
        case GemmIntMode::kOff: break;
    }
    return "off";
}

GemmIntMode parse_gemm_int_mode(const char* text) {
    if (text == nullptr || *text == '\0') return GemmIntMode::kOff;
    if (std::strcmp(text, "int8") == 0) return GemmIntMode::kInt8;
    return GemmIntMode::kOff;
}

GemmIntMode env_gemm_int_mode() { return parse_gemm_int_mode(std::getenv("AMSNET_GEMM_INT")); }

namespace {

// Same ledger discipline as the fp32 entry points: one entry per call,
// outside every loop. Integer calls are kept out of kGemmCalls so the
// two domains stay separately countable; the flop ledger is shared
// (work is work).
inline void count_gemm_int(std::size_t m, std::size_t k, std::size_t n) {
    runtime::metrics::add(runtime::metrics::Counter::kGemmIntCalls);
    runtime::metrics::add(runtime::metrics::Counter::kGemmFlops,
                          2ull * static_cast<std::uint64_t>(m) * k * n);
}

// Same inline threshold / row-grain policy as the fp32 driver.
constexpr std::size_t kParallelMacThreshold = 1u << 15;

std::size_t gemm_row_grain(std::size_t m, std::size_t k, std::size_t n) {
    const std::size_t min_rows =
        std::max<std::size_t>(1, kParallelMacThreshold / std::max<std::size_t>(1, k * n));
    return runtime::suggest_grain(m, min_rows);
}

// Scalar reference arms. Row-parallel slices reproduce the serial
// result exactly: integer accumulation is associative, so unlike the
// fp32 kernels there is nothing chunking could perturb.
void gemm_s8u8_rows_scalar(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c,
                           std::size_t row_begin, std::size_t row_end, std::size_t k,
                           std::size_t n) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
        std::int32_t* crow = c + i * n;
        std::memset(crow, 0, n * sizeof(std::int32_t));
        for (std::size_t kk = 0; kk < k; ++kk) {
            const std::int32_t aik = a[i * k + kk];
            if (aik == 0) continue;
            const std::uint8_t* brow = b + kk * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
    }
}

template <typename RowsFn>
void run_rows(std::size_t m, std::size_t k, std::size_t n, RowsFn&& rows) {
    if (m * k * n < kParallelMacThreshold) {
        rows(std::size_t{0}, m);
        return;
    }
    runtime::parallel_for(0, m, gemm_row_grain(m, k, n), rows);
}

}  // namespace

namespace kernels {

void pack_b_i8(const std::uint8_t* b, std::size_t k, std::size_t n, std::uint8_t* panel) {
    const std::size_t k4 = round_up_pow2(k, 4);
    const std::size_t groups = (n + kIntNr - 1) / kIntNr;
    for (std::size_t g = 0; g < groups; ++g) {
        std::uint8_t* out = panel + g * k4 * kIntNr;
        const std::size_t cols = std::min(kIntNr, n - g * kIntNr);
        std::size_t kb = 0;
#if defined(__SSE2__)
        // Full 8-column groups with four in-range k rows are a 4x8 byte
        // transpose: two byte interleaves then two word interleaves put
        // byte c of row t at out[c * 4 + t].
        if (cols == kIntNr) {
            const std::uint8_t* src = b + g * kIntNr;
            for (; (kb + 1) * 4 <= k; ++kb) {
                const std::size_t kk = kb * 4;
                const __m128i r0 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(src + (kk + 0) * n));
                const __m128i r1 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(src + (kk + 1) * n));
                const __m128i r2 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(src + (kk + 2) * n));
                const __m128i r3 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(src + (kk + 3) * n));
                const __m128i i01 = _mm_unpacklo_epi8(r0, r1);
                const __m128i i23 = _mm_unpacklo_epi8(r2, r3);
                _mm_storeu_si128(reinterpret_cast<__m128i*>(out + kb * 32),
                                 _mm_unpacklo_epi16(i01, i23));
                _mm_storeu_si128(reinterpret_cast<__m128i*>(out + kb * 32 + 16),
                                 _mm_unpackhi_epi16(i01, i23));
            }
        }
#endif
        for (; kb * 4 < k4; ++kb) {
            for (std::size_t c = 0; c < kIntNr; ++c) {
                for (std::size_t t = 0; t < 4; ++t) {
                    const std::size_t kk = kb * 4 + t;
                    out[kb * 32 + c * 4 + t] =
                        (c < cols && kk < k) ? b[kk * n + g * kIntNr + c] : 0;
                }
            }
        }
    }
}

void pack_a_i8(const std::int8_t* a, std::size_t rows, std::size_t k, std::int8_t* strip) {
    const std::size_t k4 = round_up_pow2(k, 4);
    // The strip keeps each row's 4-code k block contiguous, so a full
    // tile is plain 4-byte chunk copies; only the ragged k/row tail
    // needs the per-element zero-padding loop.
    std::size_t kb = 0;
    if (rows == kIntMr) {
        for (; (kb + 1) * 4 <= k; ++kb) {
            for (std::size_t r = 0; r < kIntMr; ++r) {
                std::memcpy(strip + kb * 16 + r * 4, a + r * k + kb * 4, 4);
            }
        }
    }
    for (; kb * 4 < k4; ++kb) {
        for (std::size_t r = 0; r < kIntMr; ++r) {
            for (std::size_t t = 0; t < 4; ++t) {
                const std::size_t kk = kb * 4 + t;
                strip[kb * 16 + r * 4 + t] = (r < rows && kk < k) ? a[r * k + kk] : 0;
            }
        }
    }
}

}  // namespace kernels

void gemm_s8u8(const std::int8_t* a, const std::uint8_t* b, std::int32_t* c, std::size_t m,
               std::size_t k, std::size_t n, GemmPackBuffers* pack) {
    count_gemm_int(m, k, n);
#if defined(AMSNET_HAVE_AVX2)
    if (simd::active_level() == simd::Level::kAvx2) {
        GemmPackBuffers& pb = pack != nullptr ? *pack : tls_pack_buffers();
        auto* panel = reinterpret_cast<std::uint8_t*>(
            pb.ensure(GemmPackBuffers::kPackB, packed_b_i8_floats(k, n)));
        kernels::pack_b_i8(b, k, n, panel);
        run_rows(m, k, n, [&](std::size_t r0, std::size_t r1) {
            kernels::gemm_s8u8_rows_avx2(a, panel, c, r0, r1, k, n);
        });
        return;
    }
#endif
    (void)pack;
    run_rows(m, k, n, [&](std::size_t r0, std::size_t r1) {
        gemm_s8u8_rows_scalar(a, b, c, r0, r1, k, n);
    });
}

}  // namespace ams
