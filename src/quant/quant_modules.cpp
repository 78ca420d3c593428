#include "quant/quant_modules.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/simd.hpp"

namespace ams::quant {

QuantAct::QuantAct(std::size_t bits) : bits_(bits) {
    if (bits < 2) throw std::invalid_argument("QuantAct: bits must be >= 2");
}

Tensor QuantAct::forward(const Tensor& input) {
    cached_input_ = input;
    if (bits_ >= kFloatBits) {
        Tensor out = input;
        simd::clamp(out.data(), out.data(), out.size(), 0.0f, 1.0f);
        return out;
    }
    const std::size_t levels = magnitude_levels(bits_);
    Tensor out = input;
    quantize_unit_inplace(out, levels);
    return out;
}

Tensor QuantAct::backward(const Tensor& grad_output) {
    check_same_shape(grad_output, cached_input_, "QuantAct::backward");
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        const float x = cached_input_[i];
        if (x <= 0.0f || x >= 1.0f) grad[i] = 0.0f;
    }
    return grad;
}

QuantInput::QuantInput(float max_abs_input, std::size_t bits)
    : scale_(max_abs_input), bits_(bits) {
    if (max_abs_input <= 0.0f) {
        throw std::invalid_argument("QuantInput: max_abs_input must be positive");
    }
    if (bits < 2) throw std::invalid_argument("QuantInput: bits must be >= 2");
}

Tensor QuantInput::forward(const Tensor& input) {
    Tensor scaled = input;
    const float inv = 1.0f / scale_;
    simd::scale_clamp(scaled.data(), scaled.data(), scaled.size(), inv, -1.0f, 1.0f);
    cached_scaled_ = scaled;
    if (bits_ >= kFloatBits) return scaled;
    // Signed quantization: quantize |x| on the magnitude grid, restore sign.
    const std::size_t levels = magnitude_levels(bits_);
    Tensor out = scaled;
    simd::quantize_signed(out.data(), out.data(), out.size(), static_cast<float>(levels));
    return out;
}

Tensor QuantInput::backward(const Tensor& grad_output) {
    check_same_shape(grad_output, cached_scaled_, "QuantInput::backward");
    Tensor grad = grad_output;
    const float inv = 1.0f / scale_;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        // STE through the rounding; zero where the clamp saturated.
        grad[i] = (std::fabs(cached_scaled_[i]) >= 1.0f) ? 0.0f : grad[i] * inv;
    }
    return grad;
}

QuantConv2d::QuantConv2d(const nn::Conv2dOptions& opts, std::size_t bits_w, Rng& rng)
    : conv_(opts, rng), bits_w_(bits_w) {
    if (bits_w < 2) throw std::invalid_argument("QuantConv2d: bits_w must be >= 2");
}

Tensor QuantConv2d::forward(const Tensor& input) {
    if (bits_w_ >= kFloatBits) {
        conv_.clear_effective_weight();
        ste_scale_ = Tensor();
        return conv_.forward(input);
    }
    DorefaWeights dq = dorefa_quantize_weights(conv_.weight().value, bits_w_);
    ste_scale_ = std::move(dq.ste_scale);
    conv_.set_effective_weight(std::move(dq.quantized));
    return conv_.forward(input);
}

Tensor QuantConv2d::backward(const Tensor& grad_output) {
    if (ste_scale_.empty()) {
        return conv_.backward(grad_output);
    }
    // conv_.backward accumulates dL/d(w_q) into weight().grad. Rescale only
    // the newly added contribution by d(w_q)/dw so earlier accumulation
    // (e.g. from other minibatch chunks) is preserved.
    Tensor before = conv_.weight().grad;
    Tensor grad_input = conv_.backward(grad_output);
    Tensor& wg = conv_.weight().grad;
    for (std::size_t i = 0; i < wg.size(); ++i) {
        wg[i] = before[i] + (wg[i] - before[i]) * ste_scale_[i];
    }
    return grad_input;
}

QuantLinear::QuantLinear(std::size_t in_features, std::size_t out_features, std::size_t bits_w,
                         Rng& rng, bool bias)
    : linear_(in_features, out_features, rng, bias), bits_w_(bits_w) {
    if (bits_w < 2) throw std::invalid_argument("QuantLinear: bits_w must be >= 2");
}

Tensor QuantLinear::forward(const Tensor& input) {
    if (bits_w_ >= kFloatBits) {
        linear_.clear_effective_weight();
        ste_scale_ = Tensor();
        return linear_.forward(input);
    }
    DorefaWeights dq = dorefa_quantize_weights(linear_.weight().value, bits_w_);
    ste_scale_ = std::move(dq.ste_scale);
    linear_.set_effective_weight(std::move(dq.quantized));
    return linear_.forward(input);
}

Tensor QuantLinear::backward(const Tensor& grad_output) {
    if (ste_scale_.empty()) {
        return linear_.backward(grad_output);
    }
    Tensor before = linear_.weight().grad;
    Tensor grad_input = linear_.backward(grad_output);
    Tensor& wg = linear_.weight().grad;
    for (std::size_t i = 0; i < wg.size(); ++i) {
        wg[i] = before[i] + (wg[i] - before[i]) * ste_scale_[i];
    }
    return grad_input;
}

}  // namespace ams::quant
