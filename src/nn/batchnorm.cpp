#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

#include "runtime/simd.hpp"

namespace ams::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("gamma", Tensor(Shape{channels}, 1.0f)),
      beta_("beta", Tensor(Shape{channels}, 0.0f)),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
    if (channels == 0) throw std::invalid_argument("BatchNorm2d: channels must be nonzero");
    if (eps <= 0.0f) throw std::invalid_argument("BatchNorm2d: eps must be positive");
}

Tensor BatchNorm2d::forward(const Tensor& input) {
    if (input.rank() != 4 || input.dim(1) != channels_) {
        throw std::invalid_argument("BatchNorm2d::forward: expected {N, " +
                                    std::to_string(channels_) + ", H, W}, got " +
                                    input.shape().str());
    }
    const std::size_t batch = input.dim(0);
    const std::size_t spatial = input.dim(2) * input.dim(3);
    const std::size_t per_channel = batch * spatial;
    const std::size_t image = channels_ * spatial;

    cached_shape_ = input.shape();
    cached_training_ = training();
    Tensor output(input.shape());

    if (training()) {
        cached_xhat_ = Tensor(input.shape());
        cached_inv_std_.assign(channels_, 0.0f);
        for (std::size_t c = 0; c < channels_; ++c) {
            double sum = 0.0, sq = 0.0;
            for (std::size_t b = 0; b < batch; ++b) {
                const float* chan = input.data() + b * image + c * spatial;
                for (std::size_t i = 0; i < spatial; ++i) {
                    sum += chan[i];
                    sq += static_cast<double>(chan[i]) * chan[i];
                }
            }
            const double mean = sum / static_cast<double>(per_channel);
            const double var = sq / static_cast<double>(per_channel) - mean * mean;
            const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
            cached_inv_std_[c] = inv_std;

            running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                               momentum_ * static_cast<float>(mean);
            running_var_[c] =
                (1.0f - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);

            const float g = gamma_.value[c];
            const float bt = beta_.value[c];
            const float fmean = static_cast<float>(mean);
            for (std::size_t b = 0; b < batch; ++b) {
                const float* chan = input.data() + b * image + c * spatial;
                float* xhat = cached_xhat_.data() + b * image + c * spatial;
                float* out = output.data() + b * image + c * spatial;
                for (std::size_t i = 0; i < spatial; ++i) {
                    const float xh = (chan[i] - fmean) * inv_std;
                    xhat[i] = xh;
                    out[i] = g * xh + bt;
                }
            }
        }
    } else {
        normalize_eval(input.data(), output.data(), batch, spatial);
    }
    return output;
}

void BatchNorm2d::normalize_eval(const float* in, float* out, std::size_t batch,
                                 std::size_t spatial) const {
    const std::size_t image = channels_ * spatial;
    for (std::size_t c = 0; c < channels_; ++c) {
        const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
        const float g = gamma_.value[c];
        const float bt = beta_.value[c];
        const float mean = running_mean_[c];
        for (std::size_t b = 0; b < batch; ++b) {
            simd::bn_normalize(in + b * image + c * spatial, out + b * image + c * spatial,
                               spatial, mean, inv_std, g, bt);
        }
    }
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
    if (grad_output.shape() != cached_shape_) {
        throw std::invalid_argument("BatchNorm2d::backward: grad shape " +
                                    grad_output.shape().str() + " != cached " +
                                    cached_shape_.str());
    }
    const std::size_t batch = cached_shape_.dim(0);
    const std::size_t spatial = cached_shape_.dim(2) * cached_shape_.dim(3);
    const std::size_t per_channel = batch * spatial;
    const std::size_t image = channels_ * spatial;
    Tensor grad_input(cached_shape_);

    if (!cached_training_) {
        // Eval-mode backward: y = g*(x - m)*inv_std + b with constant stats.
        for (std::size_t c = 0; c < channels_; ++c) {
            const float scale = gamma_.value[c] / std::sqrt(running_var_[c] + eps_);
            for (std::size_t b = 0; b < batch; ++b) {
                const float* g = grad_output.data() + b * image + c * spatial;
                float* gi = grad_input.data() + b * image + c * spatial;
                for (std::size_t i = 0; i < spatial; ++i) gi[i] = g[i] * scale;
            }
        }
        return grad_input;
    }

    for (std::size_t c = 0; c < channels_; ++c) {
        // Accumulate dBeta = sum(dy), dGamma = sum(dy * xhat).
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (std::size_t b = 0; b < batch; ++b) {
            const float* g = grad_output.data() + b * image + c * spatial;
            const float* xh = cached_xhat_.data() + b * image + c * spatial;
            for (std::size_t i = 0; i < spatial; ++i) {
                sum_dy += g[i];
                sum_dy_xhat += static_cast<double>(g[i]) * xh[i];
            }
        }
        beta_.grad[c] += static_cast<float>(sum_dy);
        gamma_.grad[c] += static_cast<float>(sum_dy_xhat);

        // dx = (gamma * inv_std) * (dy - mean(dy) - xhat * mean(dy*xhat))
        const float scale = gamma_.value[c] * cached_inv_std_[c];
        const float mean_dy = static_cast<float>(sum_dy / static_cast<double>(per_channel));
        const float mean_dy_xhat =
            static_cast<float>(sum_dy_xhat / static_cast<double>(per_channel));
        for (std::size_t b = 0; b < batch; ++b) {
            const float* g = grad_output.data() + b * image + c * spatial;
            const float* xh = cached_xhat_.data() + b * image + c * spatial;
            float* gi = grad_input.data() + b * image + c * spatial;
            for (std::size_t i = 0; i < spatial; ++i) {
                gi[i] = scale * (g[i] - mean_dy - xh[i] * mean_dy_xhat);
            }
        }
    }
    return grad_input;
}

std::vector<Parameter*> BatchNorm2d::parameters() {
    return {&gamma_, &beta_};
}

std::vector<const Parameter*> BatchNorm2d::own_parameters() const {
    return {&gamma_, &beta_};
}

std::vector<Parameter*> BatchNorm2d::own_parameters() {
    return {&gamma_, &beta_};
}

void BatchNorm2d::collect_state(const std::string& prefix, TensorMap& out) const {
    Module::collect_state(prefix, out);
    out[prefix + "running_mean"] = running_mean_;
    out[prefix + "running_var"] = running_var_;
}

void BatchNorm2d::load_state(const std::string& prefix, const TensorMap& in) {
    Module::load_state(prefix, in);
    const auto mean_it = in.find(prefix + "running_mean");
    const auto var_it = in.find(prefix + "running_var");
    if (mean_it == in.end() || var_it == in.end()) {
        throw std::runtime_error("BatchNorm2d::load_state: missing running stats at " + prefix);
    }
    if (mean_it->second.shape() != running_mean_.shape() ||
        var_it->second.shape() != running_var_.shape()) {
        throw std::runtime_error("BatchNorm2d::load_state: running stat shape mismatch at " +
                                 prefix);
    }
    running_mean_ = mean_it->second;
    running_var_ = var_it->second;
}

}  // namespace ams::nn
