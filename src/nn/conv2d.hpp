// Conv2d: 2-D convolution over NCHW tensors via im2col + GEMM.
#pragma once

#include <cstddef>
#include <optional>

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace ams::nn {

/// Configuration for a Conv2d layer.
struct Conv2dOptions {
    std::size_t in_channels = 0;
    std::size_t out_channels = 0;
    std::size_t kernel = 3;   ///< square kernel size
    std::size_t stride = 1;
    std::size_t padding = 0;
    bool bias = false;        ///< ResNet convs carry no bias (BN follows)
};

/// 2-D convolution. Weight layout: {out_channels, in_channels, k, k}.
///
/// The layer optionally supports an externally substituted *effective
/// weight* for the forward pass (see set_effective_weight): the quantized
/// wrapper computes DoReFa-quantized weights from the latent FP32 weights
/// each step and runs the convolution with those, while gradients are
/// routed back to the latent weights through the straight-through
/// estimator. The convolution itself is exact digital arithmetic; AMS
/// error is injected *after* it, per Fig. 3 of the paper.
class Conv2d : public Module {
public:
    /// Throws std::invalid_argument on zero channels / kernel.
    Conv2d(const Conv2dOptions& opts, Rng& rng);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    [[nodiscard]] std::string name() const override { return "Conv2d"; }

    [[nodiscard]] const Conv2dOptions& options() const { return opts_; }
    [[nodiscard]] Parameter& weight() { return weight_; }
    [[nodiscard]] const Parameter& weight() const { return weight_; }
    [[nodiscard]] Parameter* bias() { return bias_ ? &*bias_ : nullptr; }

    /// Number of multiplications per output activation (the paper's N_tot):
    /// in_channels * kernel * kernel.
    [[nodiscard]] std::size_t n_tot() const {
        return opts_.in_channels * opts_.kernel * opts_.kernel;
    }

    /// Substitutes `w` (same shape as weight) for the next forward pass.
    /// Gradients computed in backward() are accumulated into the latent
    /// weight's grad — this is exactly the straight-through estimator
    /// contract the quantized wrapper needs. Cleared by clear_effective_weight().
    void set_effective_weight(Tensor w);
    void clear_effective_weight() { effective_weight_.reset(); }

protected:
    std::vector<const Parameter*> own_parameters() const override;
    std::vector<Parameter*> own_parameters() override;

private:
    [[nodiscard]] const Tensor& forward_weight() const {
        return effective_weight_ ? *effective_weight_ : weight_.value;
    }

    /// Builds (and validates) the lowering for an input of this spatial
    /// size; throws on rank/channel mismatch.
    [[nodiscard]] ConvLowering make_lowering(const Shape& in) const;

    /// Adds the bias vector to one image's output channels.
    void add_bias(float* out_image_base, std::size_t out_spatial) const;

    Conv2dOptions opts_;
    Parameter weight_;
    std::optional<Parameter> bias_;
    std::optional<Tensor> effective_weight_;

    Tensor cached_input_;     ///< saved by forward() for backward()
    ConvLowering lowering_;   ///< geometry of the last forward

    // Training-path scratch, reused across steps (satellite fix: backward
    // no longer re-runs im2col into fresh buffers). cached_columns_ holds
    // the full-batch column matrices lowered by the training forward.
    std::vector<float> cached_columns_;
    std::size_t cached_columns_batch_ = 0;
    std::vector<float> bwd_grad_columns_;
    std::vector<float> bwd_grad_w_;
};

}  // namespace ams::nn
