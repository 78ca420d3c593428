#include "nn/conv2d.hpp"

#include <stdexcept>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"
#include "tensor/gemm.hpp"

namespace ams::nn {

Conv2d::Conv2d(const Conv2dOptions& opts, Rng& rng)
    : opts_(opts),
      weight_("weight",
              Tensor(Shape{opts.out_channels, opts.in_channels, opts.kernel, opts.kernel})) {
    if (opts.in_channels == 0 || opts.out_channels == 0 || opts.kernel == 0) {
        throw std::invalid_argument("Conv2d: channels and kernel must be nonzero");
    }
    if (opts.stride == 0) throw std::invalid_argument("Conv2d: stride must be nonzero");
    weight_.value.fill_he_normal(rng, opts.in_channels * opts.kernel * opts.kernel);
    if (opts.bias) {
        bias_.emplace("bias", Tensor(Shape{opts.out_channels}));
    }
}

void Conv2d::set_effective_weight(Tensor w) {
    if (w.shape() != weight_.value.shape()) {
        throw std::invalid_argument("Conv2d::set_effective_weight: shape mismatch " +
                                    w.shape().str() + " vs " + weight_.value.shape().str());
    }
    effective_weight_ = std::move(w);
}

ConvLowering Conv2d::make_lowering(const Shape& in) const {
    if (in.rank() != 4) {
        throw std::invalid_argument("Conv2d: expected NCHW input, got " + in.str());
    }
    if (in.dim(1) != opts_.in_channels) {
        throw std::invalid_argument("Conv2d: input channels " + std::to_string(in.dim(1)) +
                                    " != configured " + std::to_string(opts_.in_channels));
    }
    return ConvLowering(ConvGeometry{opts_.in_channels, in.dim(2),  in.dim(3),
                                     opts_.kernel,      opts_.kernel,  opts_.stride,
                                     opts_.stride,      opts_.padding, opts_.padding});
}

void Conv2d::add_bias(float* out_image_base, std::size_t out_spatial) const {
    for (std::size_t c = 0; c < opts_.out_channels; ++c) {
        float* chan = out_image_base + c * out_spatial;
        const float bv = bias_->value[c];
        for (std::size_t i = 0; i < out_spatial; ++i) chan[i] += bv;
    }
}

Tensor Conv2d::forward(const Tensor& input) {
    runtime::trace::Span span("Conv2d.forward");
    lowering_ = make_lowering(input.shape());
    cached_input_ = input;

    const std::size_t batch = input.dim(0);
    const std::size_t out_spatial = lowering_.out_spatial();
    const std::size_t patch = lowering_.patch_size();

    Tensor output(Shape{batch, opts_.out_channels, lowering_.out_h(), lowering_.out_w()});
    const Tensor& w = forward_weight();
    const std::size_t out_image = opts_.out_channels * out_spatial;

    if (training()) {
        // Lower the whole batch once into the member cache; backward()
        // reuses these columns instead of re-running im2col per image.
        cached_columns_.resize(batch * patch * out_spatial);
        cached_columns_batch_ = batch;
        lowering_.lower_batch(input.data(), batch, cached_columns_.data());
        runtime::parallel_for(
            0, batch, runtime::suggest_grain(batch, 1),
            [&](std::size_t b_begin, std::size_t b_end) {
                for (std::size_t b = b_begin; b < b_end; ++b) {
                    // out (Cout x OHW) = W (Cout x patch) * columns (patch x OHW)
                    gemm(w.data(), cached_columns_.data() + b * patch * out_spatial,
                         output.data() + b * out_image, opts_.out_channels, patch,
                         out_spatial);
                    if (bias_) add_bias(output.data() + b * out_image, out_spatial);
                }
            });
        return output;
    }

    // Eval without a context: images are independent, each chunk lowers
    // and multiplies its own slice of the batch with a private scratch
    // buffer. The inner im2col and gemm are themselves parallel, so a
    // batch of 1 still scales.
    cached_columns_batch_ = 0;
    runtime::parallel_for(
        0, batch, runtime::suggest_grain(batch, 1),
        [&](std::size_t b_begin, std::size_t b_end) {
            std::vector<float> columns(patch * out_spatial);
            for (std::size_t b = b_begin; b < b_end; ++b) {
                lowering_.lower_image(input.data(), b, columns.data());
                gemm(w.data(), columns.data(), output.data() + b * out_image,
                     opts_.out_channels, patch, out_spatial);
                if (bias_) add_bias(output.data() + b * out_image, out_spatial);
            }
        });
    return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    if (cached_input_.empty()) {
        throw std::logic_error("Conv2d::backward called before forward");
    }
    const std::size_t batch = cached_input_.dim(0);
    const std::size_t out_spatial = lowering_.out_spatial();
    const std::size_t patch = lowering_.patch_size();
    const Shape expected{batch, opts_.out_channels, lowering_.out_h(), lowering_.out_w()};
    if (grad_output.shape() != expected) {
        throw std::invalid_argument("Conv2d::backward: grad shape " + grad_output.shape().str() +
                                    " != " + expected.str());
    }

    Tensor grad_input(cached_input_.shape());
    // Columns were already lowered by the training forward; fall back to
    // one fresh lowering into the same reusable cache otherwise (e.g. a
    // forward that ran in eval mode). Either way im2col runs at most once
    // per (input, shape), not once per image per backward.
    if (cached_columns_batch_ != batch ||
        cached_columns_.size() < batch * patch * out_spatial) {
        cached_columns_.resize(batch * patch * out_spatial);
        lowering_.lower_batch(cached_input_.data(), batch, cached_columns_.data());
        cached_columns_batch_ = batch;
    }
    bwd_grad_columns_.resize(patch * out_spatial);
    bwd_grad_w_.resize(opts_.out_channels * patch);
    const Tensor& w = forward_weight();

    const std::size_t in_image = lowering_.image_floats();
    const std::size_t out_image = opts_.out_channels * out_spatial;
    for (std::size_t b = 0; b < batch; ++b) {
        const float* gout = grad_output.data() + b * out_image;
        const float* columns = cached_columns_.data() + b * patch * out_spatial;

        // dW (Cout x patch) += gout (Cout x OHW) * columns^T (OHW x patch)
        gemm_bt(gout, columns, bwd_grad_w_.data(), opts_.out_channels, out_spatial, patch);
        for (std::size_t i = 0; i < bwd_grad_w_.size(); ++i) {
            weight_.grad[i] += bwd_grad_w_[i];
        }

        // dColumns (patch x OHW) = W^T (patch x Cout) * gout (Cout x OHW)
        gemm_at(w.data(), gout, bwd_grad_columns_.data(), patch, opts_.out_channels,
                out_spatial);
        col2im(bwd_grad_columns_.data(), lowering_.geometry(),
               grad_input.data() + b * in_image);

        if (bias_) {
            for (std::size_t c = 0; c < opts_.out_channels; ++c) {
                const float* chan = gout + c * out_spatial;
                double acc = 0.0;
                for (std::size_t i = 0; i < out_spatial; ++i) acc += chan[i];
                bias_->grad[c] += static_cast<float>(acc);
            }
        }
    }
    return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
    std::vector<Parameter*> out{&weight_};
    if (bias_) out.push_back(&*bias_);
    return out;
}

std::vector<const Parameter*> Conv2d::own_parameters() const {
    std::vector<const Parameter*> out{&weight_};
    if (bias_) out.push_back(&*bias_);
    return out;
}

std::vector<Parameter*> Conv2d::own_parameters() {
    return parameters();
}

}  // namespace ams::nn
