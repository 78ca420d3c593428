// Elementwise activation layers.
#pragma once

#include "nn/module.hpp"

namespace ams::nn {

/// Standard rectified linear unit: y = max(x, 0).
class ReLU : public Module {
public:
    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "ReLU"; }

private:
    Tensor cached_input_;
};

/// ReLU clipped at `ceiling`: y = clamp(x, 0, ceiling).
///
/// DoReFa replaces every activation function with a ReLU that clips at 1
/// so the next layer's input activations are bounded in [0, 1] (paper
/// Sec. 2). The gradient is passed where 0 < x < ceiling.
class ClippedReLU : public Module {
public:
    /// Throws std::invalid_argument if ceiling <= 0.
    explicit ClippedReLU(float ceiling = 1.0f);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "ClippedReLU"; }
    [[nodiscard]] float ceiling() const { return ceiling_; }

private:
    float ceiling_;
    Tensor cached_input_;
};

}  // namespace ams::nn
