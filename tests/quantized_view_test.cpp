// The integer carrier for the DoReFa grids: bit-exact code round-trips,
// 8-bit storage selection (and the named rejection of wider grids), the
// encode helper the compiler and executor share, and the
// straight-to-codes weight transform against the float DoReFa path.
#include "quant/quantized_view.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "quant/dorefa.hpp"
#include "tensor/rng.hpp"

namespace ams::quant {
namespace {

std::vector<float> grid_values(const QuantGrid& grid) {
    std::vector<float> v;
    const float levels = static_cast<float>(grid.levels);
    const long lo = grid.is_signed ? -static_cast<long>(grid.levels) : 0;
    for (long k = lo; k <= static_cast<long>(grid.levels); ++k) {
        v.push_back(static_cast<float>(k) / levels);
    }
    return v;
}

TEST(QuantizedViewTest, GridScaleAndStorageSelection) {
    EXPECT_FLOAT_EQ((QuantGrid{127, true}.scale()), 1.0f / 127.0f);
    EXPECT_FLOAT_EQ((QuantGrid{255, false}.scale()), 1.0f / 255.0f);

    EXPECT_TRUE(grid_fits_8bit(QuantGrid{127, true}));
    EXPECT_FALSE(grid_fits_8bit(QuantGrid{128, true}));  // i8 magnitude cap
    EXPECT_TRUE(grid_fits_8bit(QuantGrid{255, false}));
    EXPECT_FALSE(grid_fits_8bit(QuantGrid{256, false}));
}

TEST(QuantizedViewTest, OnGridRoundTripIsBitExact) {
    for (const QuantGrid grid : {QuantGrid{127, true}, QuantGrid{255, false},
                                 QuantGrid{31, true}, QuantGrid{63, false}}) {
        const std::vector<float> values = grid_values(grid);
        QuantizedTensor q(values.data(), values.size(), grid);
        ASSERT_EQ(q.size(), values.size());
        EXPECT_EQ(q.grid(), grid);

        std::vector<float> back(values.size());
        q.dequantize_into(back.data());
        // memcmp: decode(encode(x)) == x is a bit-level contract.
        EXPECT_EQ(std::memcmp(back.data(), values.data(), values.size() * sizeof(float)), 0)
            << "levels=" << grid.levels << " signed=" << grid.is_signed;
    }
}

TEST(QuantizedViewTest, ViewExposesExactlyOneCodePointer) {
    const std::vector<float> unit{0.0f, 1.0f / 127.0f, 1.0f};
    {
        QuantizedTensor q(unit.data(), unit.size(), QuantGrid{127, false});
        const QuantizedView v = q.view();
        ASSERT_NE(v.u8, nullptr);
        EXPECT_EQ(v.i8, nullptr);
        EXPECT_EQ(v.u8[0], 0);
        EXPECT_EQ(v.u8[1], 1);
        EXPECT_EQ(v.u8[2], 127);
    }
    {
        const std::vector<float> signed_vals{-1.0f, 0.0f, 1.0f};
        QuantizedTensor q(signed_vals.data(), signed_vals.size(), QuantGrid{127, true});
        const QuantizedView v = q.view();
        ASSERT_NE(v.i8, nullptr);
        EXPECT_EQ(v.u8, nullptr);
        EXPECT_EQ(v.i8[0], -127);
        EXPECT_EQ(v.i8[2], 127);
    }
}

TEST(QuantizedViewTest, GridsWiderThan8BitCodesAreRejected) {
    // 255 signed levels need 9-bit codes (the 9-bit Fig. 8 configs):
    // the compiler keeps such convs fp32, and the carrier refuses them
    // by name rather than truncating.
    const std::vector<float> values{-1.0f, 0.0f, 1.0f};
    EXPECT_THROW(QuantizedTensor(values.data(), values.size(), QuantGrid{255, true}),
                 std::invalid_argument);
    EXPECT_THROW(QuantizedTensor(values.data() + 1, 2, QuantGrid{256, false}),
                 std::invalid_argument);
    Rng rng(3);
    Tensor w(Shape{2, 1, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_THROW((void)dorefa_quantize_weights_q(w, 9), std::invalid_argument);
}

TEST(QuantizedViewTest, OffGridInputsClampAndRoundToNearestCode) {
    const std::vector<float> values{-2.0f, 2.0f, 0.5f};
    QuantizedTensor q(values.data(), values.size(), QuantGrid{127, true});
    const QuantizedView v = q.view();
    EXPECT_EQ(v.i8[0], -127);  // clamped
    EXPECT_EQ(v.i8[1], 127);
    EXPECT_EQ(v.i8[2], 64);  // lround(0.5 * 127) = 64
}

TEST(QuantizedViewTest, EncodeHelpersMatchLround) {
    Rng rng(7);
    std::vector<float> unit(257);
    for (float& x : unit) x = static_cast<float>(rng.uniform(0.0, 1.0));
    std::vector<float> signed_vals(257);
    for (float& x : signed_vals) x = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<std::uint8_t> u8(unit.size());
    encode_unit_u8(unit.data(), unit.size(), 127, u8.data());
    std::vector<std::uint8_t> u8_full(unit.size());
    encode_unit_u8(unit.data(), unit.size(), 255, u8_full.data());

    const QuantizedTensor i8(signed_vals.data(), signed_vals.size(), QuantGrid{127, true});

    for (std::size_t i = 0; i < unit.size(); ++i) {
        EXPECT_EQ(u8[i], std::lround(unit[i] * 127.0f));
        EXPECT_EQ(u8_full[i], std::lround(unit[i] * 255.0f));
        EXPECT_EQ(i8.view().i8[i], std::lround(signed_vals[i] * 127.0f));
    }
}

TEST(QuantizedViewTest, DorefaWeightsQMatchesFloatPath) {
    Rng rng(11);
    Tensor w(Shape{4, 3, 3, 3});
    w.fill_uniform(rng, -1.5f, 1.5f);

    for (const std::size_t bits : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        const QuantizedTensor q = dorefa_quantize_weights_q(w, bits);
        EXPECT_EQ(q.grid().levels, magnitude_levels(bits));
        EXPECT_TRUE(q.grid().is_signed);
        ASSERT_EQ(q.size(), w.size());

        std::vector<float> reference(w.size());
        dorefa_quantize_weights_into(w, bits, reference.data());
        std::vector<float> decoded(w.size());
        q.dequantize_into(decoded.data());
        // Exact float equality, not memcmp: integer code 0 has no sign,
        // so the float path's -0.0 (negative weight rounding to zero)
        // decodes as +0.0. Every other grid point must match bit-level.
        for (std::size_t i = 0; i < w.size(); ++i) {
            EXPECT_EQ(decoded[i], reference[i]) << "bits=" << bits << " i=" << i;
        }
    }
}

}  // namespace
}  // namespace ams::quant
