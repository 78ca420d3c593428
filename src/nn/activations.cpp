#include "nn/activations.hpp"

#include <stdexcept>

#include "runtime/simd.hpp"

namespace ams::nn {

Tensor ReLU::forward(const Tensor& input) {
    cached_input_ = input;
    Tensor out = input;
    simd::relu(out.data(), out.data(), out.size());
    return out;
}


Tensor ReLU::backward(const Tensor& grad_output) {
    check_same_shape(grad_output, cached_input_, "ReLU::backward");
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        if (cached_input_[i] <= 0.0f) grad[i] = 0.0f;
    }
    return grad;
}

ClippedReLU::ClippedReLU(float ceiling) : ceiling_(ceiling) {
    if (ceiling <= 0.0f) throw std::invalid_argument("ClippedReLU: ceiling must be positive");
}

Tensor ClippedReLU::forward(const Tensor& input) {
    cached_input_ = input;
    Tensor out = input;
    simd::clipped_relu(out.data(), out.data(), out.size(), ceiling_);
    return out;
}


Tensor ClippedReLU::backward(const Tensor& grad_output) {
    check_same_shape(grad_output, cached_input_, "ClippedReLU::backward");
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        const float x = cached_input_[i];
        if (x <= 0.0f || x >= ceiling_) grad[i] = 0.0f;
    }
    return grad;
}

}  // namespace ams::nn
