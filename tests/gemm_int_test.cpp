// Packed integer GEMM property tests: both dispatch arms (scalar, AVX2)
// must produce the *same bits* as the naive integer reference at any
// thread count — integer accumulation is exact and associative, so
// unlike the fp32 kernels there is no toleranced arm. Shapes sweep the
// microkernel remainder tails: partial 4-row A tiles, masked B column
// groups, k not divisible by the 4-wide k-blocks.
#include "tensor/gemm_int.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace ams {
namespace {

class LevelGuard {
public:
    LevelGuard() : saved_(simd::active_level()) {}
    ~LevelGuard() { simd::set_level(saved_); }

private:
    simd::Level saved_;
};

struct ShapeCase {
    std::size_t m, k, n;
};

// Remainder coverage: m % 4, n % 8, k % 4 all nonzero
// somewhere, plus degenerate single-row/column cases and one size large
// enough to cross the parallel-dispatch threshold.
constexpr ShapeCase kShapes[] = {
    {1, 1, 1},   {1, 9, 8},   {4, 27, 49},  {5, 27, 49},  {3, 7, 5},
    {6, 13, 17}, {8, 32, 64}, {17, 51, 33}, {64, 36, 81},
};

std::vector<std::int32_t> naive_s8u8(const std::vector<std::int8_t>& a,
                                     const std::vector<std::uint8_t>& b, std::size_t m,
                                     std::size_t k, std::size_t n) {
    std::vector<std::int32_t> c(m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            for (std::size_t j = 0; j < n; ++j) {
                c[i * n + j] += static_cast<std::int32_t>(a[i * k + kk]) * b[kk * n + j];
            }
        }
    }
    return c;
}

std::vector<simd::Level> testable_levels() {
    std::vector<simd::Level> levels{simd::Level::kScalar};
#if defined(AMSNET_HAVE_AVX2)
    if (simd::cpu_supports_avx2_fma()) levels.push_back(simd::Level::kAvx2);
#endif
    return levels;
}

TEST(GemmIntTest, S8U8AllArmsBitEqualToNaiveAtOneAndFourThreads) {
    LevelGuard guard;
    Rng rng(5);
    for (const ShapeCase s : kShapes) {
        std::vector<std::int8_t> a(s.m * s.k);
        for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform(-127.0, 127.0));
        std::vector<std::uint8_t> b(s.k * s.n);
        for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(0.0, 127.0));
        const std::vector<std::int32_t> expected = naive_s8u8(a, b, s.m, s.k, s.n);

        for (const simd::Level level : testable_levels()) {
            simd::set_level(level);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                runtime::ThreadPool::set_global_threads(threads);
                std::vector<std::int32_t> c(s.m * s.n, -1);
                gemm_s8u8(a.data(), b.data(), c.data(), s.m, s.k, s.n);
                EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                                      c.size() * sizeof(std::int32_t)),
                          0)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n << " level="
                    << simd::level_name(level) << " threads=" << threads;
            }
        }
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
}

TEST(GemmIntTest, ExtremeCodesCannotSaturateTheInnerProducts) {
    // The documented operand contract at its limit: vpmaddubsw's i16
    // intermediate holds 2 * 127 * 127.
    LevelGuard guard;
    const std::size_t m = 5, k = 9, n = 11;
    std::vector<std::int8_t> a8(m * k, -127);
    std::vector<std::uint8_t> b8(k * n, 127);
    const auto expected8 = naive_s8u8(a8, b8, m, k, n);

    for (const simd::Level level : testable_levels()) {
        simd::set_level(level);
        std::vector<std::int32_t> c8(m * n);
        gemm_s8u8(a8.data(), b8.data(), c8.data(), m, k, n);
        EXPECT_EQ(std::memcmp(c8.data(), expected8.data(), c8.size() * sizeof(std::int32_t)),
                  0)
            << simd::level_name(level);
    }
}

TEST(GemmIntTest, AccumulatorSafetyBound) {
    // 127 * 127 * k <= 2^30 up to k = 66572.
    EXPECT_TRUE(int_accumulator_safe(127, 127, 66572));
    EXPECT_FALSE(int_accumulator_safe(127, 127, 66573));
    EXPECT_TRUE(int_accumulator_safe(32767, 32767, 1));
    EXPECT_FALSE(int_accumulator_safe(32767, 32767, 2));
    EXPECT_TRUE(int_accumulator_safe(0, 0, 1u << 31));
}

TEST(GemmIntTest, ModeNamesParseAndRoundTrip) {
    for (const GemmIntMode mode : {GemmIntMode::kOff, GemmIntMode::kInt8}) {
        EXPECT_EQ(parse_gemm_int_mode(gemm_int_mode_name(mode)), mode);
    }
    EXPECT_EQ(parse_gemm_int_mode(nullptr), GemmIntMode::kOff);
    EXPECT_EQ(parse_gemm_int_mode(""), GemmIntMode::kOff);
    EXPECT_EQ(parse_gemm_int_mode("bogus"), GemmIntMode::kOff);
    // The retired int16 lane's values parse like any unrecognized text.
    EXPECT_EQ(parse_gemm_int_mode("int16"), GemmIntMode::kOff);
    EXPECT_EQ(parse_gemm_int_mode("auto"), GemmIntMode::kOff);

    ::setenv("AMSNET_GEMM_INT", "int8", 1);
    EXPECT_EQ(env_gemm_int_mode(), GemmIntMode::kInt8);
    ::unsetenv("AMSNET_GEMM_INT");
    EXPECT_EQ(env_gemm_int_mode(), GemmIntMode::kOff);
}

TEST(GemmIntTest, SimdEnvRetiredSse41ValueAutoDetects) {
    // AMSNET_SIMD has two arms: "off" forces scalar; "avx2", unset, and
    // unrecognized text — including the value that once selected the
    // deleted 128-bit arm — auto-detect.
    const char* saved = std::getenv("AMSNET_SIMD");
    const std::string saved_value = saved != nullptr ? saved : "";
    ::unsetenv("AMSNET_SIMD");
    const simd::Level unset = simd::detect_level();
    const std::string retired = std::string("sse") + "41";
    for (const char* value : {retired.c_str(), "avx2", "bogus"}) {
        ::setenv("AMSNET_SIMD", value, 1);
        EXPECT_EQ(simd::detect_level(), unset) << value;
    }
    ::setenv("AMSNET_SIMD", "off", 1);
    EXPECT_EQ(simd::detect_level(), simd::Level::kScalar);
    if (saved != nullptr) {
        ::setenv("AMSNET_SIMD", saved_value.c_str(), 1);
    } else {
        ::unsetenv("AMSNET_SIMD");
    }
}

TEST(GemmIntTest, CodeIm2colMatchesFloatIm2colAddressing) {
    // im2col_u8 must place code[p] exactly where the float
    // lowering places float(code[p]), with padding encoded as code 0.
    ConvGeometry g;
    g.in_channels = 3;
    g.in_h = 7;
    g.in_w = 6;
    g.kernel_h = 3;
    g.kernel_w = 3;
    g.stride_h = 2;
    g.stride_w = 1;
    g.pad_h = 1;
    g.pad_w = 1;
    const std::size_t image = g.in_channels * g.in_h * g.in_w;
    const std::size_t cols = g.patch_size() * g.out_h() * g.out_w();

    Rng rng(9);
    std::vector<std::uint8_t> codes_u8(image);
    for (auto& c : codes_u8) c = static_cast<std::uint8_t>(rng.uniform(0.0, 127.0));
    std::vector<float> as_float(image);
    for (std::size_t i = 0; i < image; ++i) as_float[i] = static_cast<float>(codes_u8[i]);

    std::vector<float> float_cols(cols);
    im2col(as_float.data(), g, float_cols.data());
    std::vector<std::uint8_t> u8_cols(cols, 255);
    im2col_u8(codes_u8.data(), g, u8_cols.data());

    for (std::size_t i = 0; i < cols; ++i) {
        EXPECT_EQ(static_cast<float>(u8_cols[i]), float_cols[i]) << "col " << i;
    }
}

}  // namespace
}  // namespace ams
