#include "quant/dorefa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace ams::quant {
namespace {

TEST(DorefaTest, MagnitudeLevelsMatchSignMagnitude) {
    EXPECT_EQ(magnitude_levels(2), 1u);
    EXPECT_EQ(magnitude_levels(4), 7u);
    EXPECT_EQ(magnitude_levels(8), 127u);
    EXPECT_THROW((void)magnitude_levels(1), std::invalid_argument);
    EXPECT_THROW((void)magnitude_levels(32), std::invalid_argument);
}

TEST(QuantizeUnitTest, ClampsAndRounds) {
    EXPECT_FLOAT_EQ(quantize_unit(-0.5f, 7), 0.0f);
    EXPECT_FLOAT_EQ(quantize_unit(1.5f, 7), 1.0f);
    EXPECT_FLOAT_EQ(quantize_unit(0.5f, 2), 0.5f);
    EXPECT_FLOAT_EQ(quantize_unit(0.24f, 2), 0.0f);
    EXPECT_FLOAT_EQ(quantize_unit(0.26f, 2), 0.5f);
    EXPECT_THROW((void)quantize_unit(0.5f, 0), std::invalid_argument);
}

class QuantizeUnitProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizeUnitProperty, IdempotentAndOnGrid) {
    const std::size_t bits = GetParam();
    const std::size_t levels = magnitude_levels(bits);
    Rng rng(bits);
    for (int i = 0; i < 500; ++i) {
        const float x = static_cast<float>(rng.uniform(-0.2, 1.2));
        const float q = quantize_unit(x, levels);
        // On-grid: q * levels is an integer.
        const float scaled = q * static_cast<float>(levels);
        EXPECT_NEAR(scaled, std::round(scaled), 1e-4f);
        // Idempotent.
        EXPECT_FLOAT_EQ(quantize_unit(q, levels), q);
        // Within half a step of the clamped input.
        const float clamped = std::clamp(x, 0.0f, 1.0f);
        EXPECT_LE(std::fabs(q - clamped), 0.5f / levels + 1e-6f);
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizeUnitProperty, ::testing::Values(2u, 3u, 4u, 6u, 8u));

class DorefaWeightsProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DorefaWeightsProperty, QuantizedWeightsBoundedAndOnGrid) {
    const std::size_t bits = GetParam();
    Rng rng(100 + bits);
    Tensor w(Shape{64});
    w.fill_normal(rng, 0.0f, 1.5f);
    const DorefaWeights dq = dorefa_quantize_weights(w, bits);

    const std::size_t levels = magnitude_levels(bits);
    std::set<long long> grid_points;
    for (std::size_t i = 0; i < dq.quantized.size(); ++i) {
        const float q = dq.quantized[i];
        EXPECT_GE(q, -1.0f);
        EXPECT_LE(q, 1.0f);
        // Sign-magnitude grid: q * levels must be an integer.
        const float scaled = q * static_cast<float>(levels);
        EXPECT_NEAR(scaled, std::round(scaled), 1e-3f);
        grid_points.insert(std::llround(scaled));
        EXPECT_GT(dq.ste_scale[i], 0.0f);
    }
    // The transform must exercise more than one level for spread weights.
    EXPECT_GT(grid_points.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Bits, DorefaWeightsProperty, ::testing::Values(2u, 4u, 6u, 8u));

TEST(DorefaWeightsTest, FloatBitsIsIdentity) {
    Rng rng(7);
    Tensor w(Shape{16});
    w.fill_normal(rng, 0.0f, 2.0f);
    const DorefaWeights dq = dorefa_quantize_weights(w, kFloatBits);
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_FLOAT_EQ(dq.quantized[i], w[i]);
        EXPECT_FLOAT_EQ(dq.ste_scale[i], 1.0f);
    }
}

TEST(DorefaWeightsTest, SteScaleMatchesTanhDerivative) {
    Tensor w = Tensor::from_data(Shape{2}, {0.3f, -1.2f});
    const DorefaWeights dq = dorefa_quantize_weights(w, 8);
    const float max_tanh = std::max(std::fabs(std::tanh(0.3f)), std::fabs(std::tanh(-1.2f)));
    for (std::size_t i = 0; i < 2; ++i) {
        const float t = std::tanh(w[i]);
        EXPECT_NEAR(dq.ste_scale[i], (1.0f - t * t) / max_tanh, 1e-5f);
    }
}

TEST(DorefaWeightsTest, LargestMagnitudeWeightMapsToUnit) {
    // The weight with the largest |tanh| maps to exactly +/-1.
    Tensor w = Tensor::from_data(Shape{3}, {0.1f, 2.0f, -0.5f});
    const DorefaWeights dq = dorefa_quantize_weights(w, 8);
    EXPECT_NEAR(dq.quantized[1], 1.0f, 1e-5f);
}

TEST(DorefaWeightsTest, AllZeroWeightsHandled) {
    Tensor w(Shape{4}, 0.0f);
    const DorefaWeights dq = dorefa_quantize_weights(w, 4);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dq.quantized[i], 0.0f);
}

TEST(DorefaActivationsTest, ClipsAndQuantizes) {
    Tensor a = Tensor::from_data(Shape{4}, {-0.5f, 0.49f, 0.51f, 2.0f});
    Tensor q = dorefa_quantize_activations(a, 2);  // 1 level: {0, 1}
    EXPECT_FLOAT_EQ(q[0], 0.0f);
    EXPECT_FLOAT_EQ(q[1], 0.0f);
    EXPECT_FLOAT_EQ(q[2], 1.0f);
    EXPECT_FLOAT_EQ(q[3], 1.0f);
}

TEST(DorefaActivationsTest, FloatBitsIsIdentity) {
    Tensor a = Tensor::from_data(Shape{2}, {-0.5f, 2.0f});
    Tensor q = dorefa_quantize_activations(a, kFloatBits);
    EXPECT_FLOAT_EQ(q[0], -0.5f);
    EXPECT_FLOAT_EQ(q[1], 2.0f);
}

}  // namespace
}  // namespace ams::quant
