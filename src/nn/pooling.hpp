// Spatial pooling layers over NCHW tensors.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace ams::nn {

/// Max pooling with square window and stride.
class MaxPool2d : public Module {
public:
    /// Throws std::invalid_argument if window or stride is zero.
    explicit MaxPool2d(std::size_t window, std::size_t stride = 0, std::size_t padding = 0);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

    /// Output shape for `in`; throws on bad rank / window vs input size.
    [[nodiscard]] Shape out_shape(const Shape& in) const;

    /// Eval-only pooling into a caller-provided buffer (no argmax record,
    /// no module state touched). The compiled-plan executor's hook; the
    /// loop is the same one forward(input) runs.
    void pool_eval(const Tensor& input, float* out) const { pool(input, out, nullptr); }

private:
    /// The pooling loop; writes into `out` and, when `argmax` is nonnull,
    /// records the flat input index of each max for backward.
    void pool(const Tensor& input, float* out, std::size_t* argmax) const;

    std::size_t window_;
    std::size_t stride_;
    std::size_t padding_;
    Shape input_shape_;
    Shape output_shape_;
    std::vector<std::size_t> argmax_;  ///< flat input index of each output max
};

/// Global average pooling: {N,C,H,W} -> {N,C}.
class GlobalAvgPool : public Module {
public:
    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

    /// The {N,C,H,W} -> {N,C} mean reduction both eval paths share
    /// (serial, double accumulator per channel).
    static void reduce(const Tensor& input, float* out);

private:
    Shape input_shape_;
};

}  // namespace ams::nn
