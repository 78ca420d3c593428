// Linear: fully-connected layer over {N, in_features} tensors.
#pragma once

#include <optional>

#include "nn/module.hpp"

namespace ams::nn {

/// Fully-connected layer: y = x W^T + b.
/// Weight layout: {out_features, in_features}; bias: {out_features}.
///
/// Supports the same effective-weight substitution mechanism as Conv2d so
/// the DoReFa wrapper can run the forward pass with quantized weights while
/// gradients flow to the latent FP32 weights (straight-through estimator).
class Linear : public Module {
public:
    /// Throws std::invalid_argument on zero feature counts.
    Linear(std::size_t in_features, std::size_t out_features, Rng& rng, bool bias = true);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    [[nodiscard]] std::string name() const override { return "Linear"; }

    [[nodiscard]] std::size_t in_features() const { return in_features_; }
    [[nodiscard]] std::size_t out_features() const { return out_features_; }
    [[nodiscard]] Parameter& weight() { return weight_; }
    [[nodiscard]] Parameter& bias_param() { return bias_; }

    /// Multiplications per output activation (the paper's N_tot).
    [[nodiscard]] std::size_t n_tot() const { return in_features_; }

    void set_effective_weight(Tensor w);
    void clear_effective_weight() { effective_weight_.reset(); }

protected:
    std::vector<const Parameter*> own_parameters() const override;
    std::vector<Parameter*> own_parameters() override;

private:
    [[nodiscard]] const Tensor& forward_weight() const {
        return effective_weight_ ? *effective_weight_ : weight_.value;
    }

    std::size_t in_features_;
    std::size_t out_features_;
    bool has_bias_;
    Parameter weight_;
    Parameter bias_;
    std::optional<Tensor> effective_weight_;
    Tensor cached_input_;
};

}  // namespace ams::nn
