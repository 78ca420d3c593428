// Quantized layer wrappers implementing Fig. 3 of the paper:
//   PreviousLayer -> [ReLU-1 -> quantize to BX bits]  (QuantAct)
//                 -> [conv with weights quantized to BW, mapped to [-1,1]]
//                    (QuantConv2d / QuantLinear)
//                 -> AMS error injection (ams::vmac::ErrorInjector)
//                 -> BatchNorm -> NextLayer
// Gradients flow through every quantizer via the straight-through
// estimator; batch-norm parameters stay full precision (paper Sec. 2).
#pragma once

#include <memory>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "quant/dorefa.hpp"

namespace ams::quant {

/// The "quantized ReLU" of Fig. 3: y = quantize_BX(clamp(x, 0, 1)).
///
/// The clip at 1 is what bounds the next layer's input activations, making
/// further input rescaling unnecessary after the first layer. The STE
/// passes gradients where 0 < x < 1. bits == kFloatBits degenerates to a
/// plain clipped ReLU.
class QuantAct : public nn::Module {
public:
    /// Throws std::invalid_argument for bits < 2.
    explicit QuantAct(std::size_t bits);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "QuantAct"; }
    [[nodiscard]] std::size_t bits() const { return bits_; }

private:
    std::size_t bits_;
    Tensor cached_input_;
};

/// First-layer input conditioning (paper Sec. 2): rescale inputs by the
/// maximum input activation magnitude so they lie in [-1, 1], then
/// quantize (signed) to BX bits. The scale is fixed at construction from
/// dataset statistics.
class QuantInput : public nn::Module {
public:
    /// Throws std::invalid_argument if max_abs_input <= 0 or bits < 2.
    QuantInput(float max_abs_input, std::size_t bits);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "QuantInput"; }
    [[nodiscard]] float max_abs_input() const { return scale_; }
    [[nodiscard]] std::size_t bits() const { return bits_; }

private:
    float scale_;
    std::size_t bits_;
    Tensor cached_scaled_;
};

/// Convolution whose forward pass runs with DoReFa-quantized weights while
/// the optimizer updates the latent FP32 weights (STE).
class QuantConv2d : public nn::Module {
public:
    /// bits_w == kFloatBits keeps the convolution full precision.
    QuantConv2d(const nn::Conv2dOptions& opts, std::size_t bits_w, Rng& rng);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<nn::Parameter*> parameters() override { return conv_.parameters(); }
    void set_training(bool training) override {
        nn::Module::set_training(training);
        conv_.set_training(training);
    }
    [[nodiscard]] std::string name() const override { return "QuantConv2d"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override {
        conv_.collect_state(prefix, out);
    }
    void load_state(const std::string& prefix, const TensorMap& in) override {
        conv_.load_state(prefix, in);
    }

    [[nodiscard]] nn::Conv2d& conv() { return conv_; }
    [[nodiscard]] const nn::Conv2d& conv() const { return conv_; }
    [[nodiscard]] std::size_t bits_w() const { return bits_w_; }
    [[nodiscard]] std::size_t n_tot() const { return conv_.n_tot(); }

private:
    nn::Conv2d conv_;
    std::size_t bits_w_;
    Tensor ste_scale_;
};

/// Fully-connected analogue of QuantConv2d (the FC head of ResNet).
class QuantLinear : public nn::Module {
public:
    QuantLinear(std::size_t in_features, std::size_t out_features, std::size_t bits_w, Rng& rng,
                bool bias = true);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<nn::Parameter*> parameters() override { return linear_.parameters(); }
    void set_training(bool training) override {
        nn::Module::set_training(training);
        linear_.set_training(training);
    }
    [[nodiscard]] std::string name() const override { return "QuantLinear"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override {
        linear_.collect_state(prefix, out);
    }
    void load_state(const std::string& prefix, const TensorMap& in) override {
        linear_.load_state(prefix, in);
    }

    [[nodiscard]] nn::Linear& linear() { return linear_; }
    [[nodiscard]] std::size_t bits_w() const { return bits_w_; }
    [[nodiscard]] std::size_t n_tot() const { return linear_.n_tot(); }

private:
    nn::Linear linear_;
    std::size_t bits_w_;
    Tensor ste_scale_;
};

}  // namespace ams::quant
