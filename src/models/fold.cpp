#include "models/fold.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/conv_eval.hpp"
#include "runtime/eval_context.hpp"

namespace ams::models {

FoldedConv fold_bn_into_conv(const Tensor& weight, nn::BatchNorm2d& bn, float eps) {
    const std::size_t cout = weight.dim(0);
    const std::size_t per_filter = weight.size() / cout;

    FoldedConv folded{Tensor(weight.shape()), Tensor(Shape{cout})};
    for (std::size_t oc = 0; oc < cout; ++oc) {
        const float inv_std = 1.0f / std::sqrt(bn.running_var()[oc] + eps);
        const float gamma = bn.gamma().value[oc];
        const float beta = bn.beta().value[oc];
        const float mean = bn.running_mean()[oc];
        const float scale = gamma * inv_std;
        for (std::size_t i = 0; i < per_filter; ++i) {
            folded.weight[oc * per_filter + i] = weight[oc * per_filter + i] * scale;
        }
        folded.bias[oc] = beta - scale * mean;
    }
    return folded;
}

FoldedConv fold_conv_bn(ConvUnit& unit, float eps) {
    if (unit.injector().enabled()) {
        throw std::invalid_argument(
            "fold_conv_bn: disable the AMS injector before folding (deployment step)");
    }
    return fold_bn_into_conv(unit.conv().conv().weight().value, unit.bn(), eps);
}

Tensor apply_folded(const FoldedConv& folded, const Tensor& input, std::size_t stride,
                    std::size_t padding) {
    if (input.rank() != 4 || folded.weight.rank() != 4) {
        throw std::invalid_argument("apply_folded: expected NCHW input and 4-d weights");
    }
    const std::size_t cout = folded.weight.dim(0);
    const std::size_t kernel = folded.weight.dim(2);
    ConvGeometry g{folded.weight.dim(1), input.dim(2), input.dim(3), kernel, kernel,
                   stride,               stride,       padding,      padding};
    g.validate();
    const ConvLowering low(g);
    const std::size_t batch = input.dim(0);
    Tensor output(Shape{batch, cout, low.out_h(), low.out_w()});

    // The digital bias add, as a per-image GEMM epilogue (same element
    // order as the legacy serial loop).
    struct BiasTail {
        const float* bias;
        std::size_t cout;
        std::size_t out_spatial;
        static void apply(void* self, float* out_image, std::size_t /*b*/) {
            const auto* tail = static_cast<const BiasTail*>(self);
            for (std::size_t oc = 0; oc < tail->cout; ++oc) {
                float* chan = out_image + oc * tail->out_spatial;
                const float bv = tail->bias[oc];
                for (std::size_t i = 0; i < tail->out_spatial; ++i) chan[i] += bv;
            }
        }
    } tail{folded.bias.data(), cout, low.out_spatial()};

    // Shared ConvLowering + EvalContext conv path (same executor as the
    // compiled plan); the local context keeps the verification helper
    // self-contained.
    runtime::EvalContext ctx;
    nn::conv_eval_run(input.data(), batch, low, folded.weight.data(), cout, output.data(), ctx,
                      &folded, &BiasTail::apply, &tail);
    return output;
}

}  // namespace ams::models
