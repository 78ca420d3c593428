#include "ams/vmac_conv.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ams/error_model.hpp"
#include "nn/conv2d.hpp"

namespace ams::vmac {
namespace {

VmacConfig cfg(double enob, std::size_t nmult = 8) {
    VmacConfig c;
    c.enob = enob;
    c.nmult = nmult;
    c.bits_w = 16;  // fine operand codecs: isolate ADC error
    c.bits_x = 16;
    return c;
}

Tensor random_weight(std::size_t cout, std::size_t cin, std::size_t k, Rng& rng) {
    Tensor w(Shape{cout, cin, k, k});
    w.fill_uniform(rng, -1.0f, 1.0f);
    return w;
}

TEST(VmacConvTest, HighEnobMatchesExactConvolution) {
    Rng rng(1);
    Tensor w = random_weight(3, 2, 3, rng);
    VmacConv2d vconv(w, 1, 1, cfg(22.0), {}, BackendOptions{BackendKind::kBitExact}, Rng(2));

    nn::Conv2dOptions opts{2, 3, 3, 1, 1, false};
    nn::Conv2d ref(opts, rng);
    ref.set_effective_weight(w);

    Tensor x(Shape{2, 2, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);
    Tensor a = vconv.forward(x);
    Tensor b = ref.forward(x);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 2e-3f);
}

TEST(VmacConvTest, ErrorVarianceTracksEquationTwo) {
    Rng rng(3);
    Tensor w = random_weight(4, 8, 3, rng);  // n_tot = 72
    const VmacConfig c = cfg(8.0);
    VmacConv2d vconv(w, 1, 1, c, {}, BackendOptions{BackendKind::kBitExact}, Rng(4));

    nn::Conv2dOptions opts{8, 4, 3, 1, 1, false};
    nn::Conv2d ref(opts, rng);
    ref.set_effective_weight(w);

    Tensor x(Shape{4, 8, 8, 8});
    x.fill_uniform(rng, 0.0f, 1.0f);
    Tensor err = vconv.forward(x) - ref.forward(x);
    const double model_var = total_error_variance(c, vconv.n_tot());
    EXPECT_NEAR(err.variance() / model_var, 1.0, 0.25);
    EXPECT_NEAR(err.mean(), 0.0, 4.0 * std::sqrt(model_var / err.size()));
}

TEST(VmacConvTest, PerVmacNoiseModeAlsoTracksModel) {
    Rng rng(5);
    Tensor w = random_weight(4, 8, 3, rng);
    const VmacConfig c = cfg(8.0);
    VmacConv2d vconv(w, 1, 1, c, {}, BackendOptions{BackendKind::kPerVmacNoise}, Rng(6));

    nn::Conv2dOptions opts{8, 4, 3, 1, 1, false};
    nn::Conv2d ref(opts, rng);
    ref.set_effective_weight(w);

    Tensor x(Shape{4, 8, 8, 8});
    x.fill_uniform(rng, 0.0f, 1.0f);
    Tensor err = vconv.forward(x) - ref.forward(x);
    EXPECT_NEAR(err.variance() / total_error_variance(c, vconv.n_tot()), 1.0, 0.15);
}

TEST(VmacConvTest, StridedGeometryMatchesPlainConv) {
    Rng rng(7);
    Tensor w = random_weight(2, 3, 3, rng);
    VmacConv2d vconv(w, 2, 1, cfg(22.0), {}, BackendOptions{BackendKind::kBitExact}, Rng(8));
    nn::Conv2dOptions opts{3, 2, 3, 2, 1, false};
    nn::Conv2d ref(opts, rng);
    ref.set_effective_weight(w);
    Tensor x(Shape{1, 3, 8, 8});
    x.fill_uniform(rng, 0.0f, 1.0f);
    Tensor a = vconv.forward(x);
    Tensor b = ref.forward(x);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 2e-3f);
}

TEST(VmacConvTest, EvaluationOnly) {
    Rng rng(9);
    Tensor w = random_weight(1, 1, 1, rng);
    VmacConv2d vconv(w, 1, 0, cfg(10.0), {}, BackendOptions{BackendKind::kBitExact}, Rng(10));
    Tensor g(Shape{1, 1, 2, 2});
    EXPECT_THROW((void)vconv.backward(g), std::logic_error);
}

TEST(VmacConvTest, ValidatesConstructionAndInput) {
    Rng rng(11);
    Tensor bad_rank(Shape{2, 3, 3});
    const BackendOptions exact{BackendKind::kBitExact};
    EXPECT_THROW(VmacConv2d(bad_rank, 1, 1, cfg(10.0), {}, exact, Rng(1)),
                 std::invalid_argument);
    Tensor rect(Shape{1, 1, 3, 5});
    EXPECT_THROW(VmacConv2d(rect, 1, 1, cfg(10.0), {}, exact, Rng(1)), std::invalid_argument);
    Tensor w = random_weight(1, 2, 3, rng);
    VmacConv2d vconv(w, 1, 1, cfg(10.0), {}, BackendOptions{BackendKind::kBitExact}, Rng(1));
    Tensor wrong_channels(Shape{1, 3, 6, 6});
    EXPECT_THROW((void)vconv.forward(wrong_channels), std::invalid_argument);
}

TEST(VmacConvTest, NTotFromWeightShape) {
    Rng rng(12);
    Tensor w = random_weight(5, 8, 3, rng);
    VmacConv2d vconv(w, 1, 1, cfg(10.0), {}, BackendOptions{BackendKind::kBitExact}, Rng(1));
    EXPECT_EQ(vconv.n_tot(), 72u);
}

}  // namespace
}  // namespace ams::vmac
