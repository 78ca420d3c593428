#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/gemm.hpp"

namespace ams::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_("weight", Tensor(Shape{out_features, in_features})),
      bias_("bias", Tensor(Shape{bias ? out_features : 0})) {
    if (in_features == 0 || out_features == 0) {
        throw std::invalid_argument("Linear: feature counts must be nonzero");
    }
    weight_.value.fill_he_normal(rng, in_features);
}

void Linear::set_effective_weight(Tensor w) {
    if (w.shape() != weight_.value.shape()) {
        throw std::invalid_argument("Linear::set_effective_weight: shape mismatch " +
                                    w.shape().str() + " vs " + weight_.value.shape().str());
    }
    effective_weight_ = std::move(w);
}

Tensor Linear::forward(const Tensor& input) {
    if (input.rank() != 2 || input.dim(1) != in_features_) {
        throw std::invalid_argument("Linear::forward: expected {N, " +
                                    std::to_string(in_features_) + "}, got " +
                                    input.shape().str());
    }
    cached_input_ = input;
    const std::size_t batch = input.dim(0);
    Tensor output(Shape{batch, out_features_});
    // y (N x Out) = x (N x In) * W^T (In x Out); W stored (Out x In).
    gemm_bt(input.data(), forward_weight().data(), output.data(), batch, in_features_,
            out_features_);
    if (has_bias_) {
        for (std::size_t b = 0; b < batch; ++b) {
            float* row = output.data() + b * out_features_;
            for (std::size_t j = 0; j < out_features_; ++j) row[j] += bias_.value[j];
        }
    }
    return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
    if (cached_input_.empty()) throw std::logic_error("Linear::backward before forward");
    const std::size_t batch = cached_input_.dim(0);
    if (grad_output.shape() != Shape{batch, out_features_}) {
        throw std::invalid_argument("Linear::backward: bad grad shape " +
                                    grad_output.shape().str());
    }
    // dW (Out x In) += gout^T (Out x N) * x (N x In)
    Tensor grad_w(weight_.value.shape());
    gemm_at(grad_output.data(), cached_input_.data(), grad_w.data(), out_features_, batch,
            in_features_);
    weight_.grad += grad_w;

    if (has_bias_) {
        for (std::size_t b = 0; b < batch; ++b) {
            const float* row = grad_output.data() + b * out_features_;
            for (std::size_t j = 0; j < out_features_; ++j) bias_.grad[j] += row[j];
        }
    }

    // dx (N x In) = gout (N x Out) * W (Out x In)
    Tensor grad_input(cached_input_.shape());
    gemm(grad_output.data(), forward_weight().data(), grad_input.data(), batch, out_features_,
         in_features_);
    return grad_input;
}

std::vector<Parameter*> Linear::parameters() {
    std::vector<Parameter*> out{&weight_};
    if (has_bias_) out.push_back(&bias_);
    return out;
}

std::vector<const Parameter*> Linear::own_parameters() const {
    std::vector<const Parameter*> out{&weight_};
    if (has_bias_) out.push_back(&bias_);
    return out;
}

std::vector<Parameter*> Linear::own_parameters() {
    return parameters();
}

}  // namespace ams::nn
