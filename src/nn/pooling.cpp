#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

namespace ams::nn {

MaxPool2d::MaxPool2d(std::size_t window, std::size_t stride, std::size_t padding)
    : window_(window), stride_(stride == 0 ? window : stride), padding_(padding) {
    if (window == 0) throw std::invalid_argument("MaxPool2d: window must be nonzero");
}

Shape MaxPool2d::out_shape(const Shape& in) const {
    if (in.rank() != 4) {
        throw std::invalid_argument("MaxPool2d: expected NCHW, got " + in.str());
    }
    const std::size_t h = in.dim(2), w = in.dim(3);
    if (h + 2 * padding_ < window_ || w + 2 * padding_ < window_) {
        throw std::invalid_argument("MaxPool2d: window larger than padded input");
    }
    const std::size_t oh = (h + 2 * padding_ - window_) / stride_ + 1;
    const std::size_t ow = (w + 2 * padding_ - window_) / stride_ + 1;
    return Shape{in.dim(0), in.dim(1), oh, ow};
}

void MaxPool2d::pool(const Tensor& input, float* out, std::size_t* argmax) const {
    const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
    const std::size_t oh = (h + 2 * padding_ - window_) / stride_ + 1;
    const std::size_t ow = (w + 2 * padding_ - window_) / stride_ + 1;
    std::size_t oi = 0;
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float* chan = input.data() + (b * c + ch) * h * w;
            const std::size_t chan_base = (b * c + ch) * h * w;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::size_t best_idx = 0;
                    for (std::size_t ky = 0; ky < window_; ++ky) {
                        const long long iy = static_cast<long long>(oy * stride_ + ky) -
                                             static_cast<long long>(padding_);
                        if (iy < 0 || iy >= static_cast<long long>(h)) continue;
                        for (std::size_t kx = 0; kx < window_; ++kx) {
                            const long long ix = static_cast<long long>(ox * stride_ + kx) -
                                                 static_cast<long long>(padding_);
                            if (ix < 0 || ix >= static_cast<long long>(w)) continue;
                            const std::size_t idx = static_cast<std::size_t>(iy) * w +
                                                    static_cast<std::size_t>(ix);
                            if (chan[idx] > best) {
                                best = chan[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[oi] = best;
                    if (argmax != nullptr) argmax[oi] = chan_base + best_idx;
                }
            }
        }
    }
}

Tensor MaxPool2d::forward(const Tensor& input) {
    input_shape_ = input.shape();
    output_shape_ = out_shape(input.shape());
    Tensor out(output_shape_);
    argmax_.assign(out.size(), 0);
    pool(input, out.data(), argmax_.data());
    return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
    if (grad_output.shape() != output_shape_) {
        throw std::invalid_argument("MaxPool2d::backward: grad shape " +
                                    grad_output.shape().str() + " != " + output_shape_.str());
    }
    Tensor grad_input(input_shape_);
    for (std::size_t i = 0; i < grad_output.size(); ++i) {
        grad_input[argmax_[i]] += grad_output[i];
    }
    return grad_input;
}

void GlobalAvgPool::reduce(const Tensor& input, float* out) {
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t spatial = input.dim(2) * input.dim(3);
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float* chan = input.data() + (b * c + ch) * spatial;
            double acc = 0.0;
            for (std::size_t i = 0; i < spatial; ++i) acc += chan[i];
            out[b * c + ch] = static_cast<float>(acc / static_cast<double>(spatial));
        }
    }
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
    if (input.rank() != 4) {
        throw std::invalid_argument("GlobalAvgPool::forward: expected NCHW, got " +
                                    input.shape().str());
    }
    input_shape_ = input.shape();
    Tensor out(Shape{input.dim(0), input.dim(1)});
    reduce(input, out.data());
    return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
    const std::size_t n = input_shape_.dim(0), c = input_shape_.dim(1);
    if (grad_output.shape() != Shape{n, c}) {
        throw std::invalid_argument("GlobalAvgPool::backward: grad shape " +
                                    grad_output.shape().str());
    }
    const std::size_t spatial = input_shape_.dim(2) * input_shape_.dim(3);
    const float inv = 1.0f / static_cast<float>(spatial);
    Tensor grad_input(input_shape_);
    for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            float* chan = grad_input.data() + (b * c + ch) * spatial;
            const float g = grad_output[b * c + ch] * inv;
            for (std::size_t i = 0; i < spatial; ++i) chan[i] = g;
        }
    }
    return grad_input;
}

}  // namespace ams::nn
