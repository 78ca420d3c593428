#include "models/blocks.hpp"

#include "nn/activations.hpp"

namespace ams::models {

std::unique_ptr<nn::Module> make_activation(const LayerCommon& common) {
    if (common.bits_x >= quant::kFloatBits) {
        return std::make_unique<nn::ReLU>();
    }
    return std::make_unique<quant::QuantAct>(common.bits_x);
}

namespace {

nn::Conv2dOptions conv_opts(std::size_t in, std::size_t out, std::size_t kernel,
                            std::size_t stride) {
    nn::Conv2dOptions o;
    o.in_channels = in;
    o.out_channels = out;
    o.kernel = kernel;
    o.stride = stride;
    o.padding = kernel / 2;
    o.bias = false;
    return o;
}

std::unique_ptr<ConvUnit> make_unit(std::size_t in, std::size_t out, std::size_t kernel,
                                    std::size_t stride, const LayerCommon& common, Rng& rng,
                                    std::uint64_t stream) {
    return std::make_unique<ConvUnit>(conv_opts(in, out, kernel, stride), common.bits_w,
                                      common.vmac, common.ams_enabled, rng, common.mode, stream,
                                      common.device);
}

}  // namespace

BottleneckBlock::BottleneckBlock(std::size_t in_channels, std::size_t out_channels,
                                 std::size_t stride, const LayerCommon& common, Rng& rng,
                                 std::uint64_t noise_stream) {
    const std::size_t mid = std::max<std::size_t>(out_channels / 4, 1);
    act_in_ = make_activation(common);
    unit1_ = make_unit(in_channels, mid, 1, 1, common, rng, noise_stream * 16 + 1);
    act1_ = make_activation(common);
    unit2_ = make_unit(mid, mid, 3, stride, common, rng, noise_stream * 16 + 2);
    act2_ = make_activation(common);
    unit3_ = make_unit(mid, out_channels, 1, 1, common, rng, noise_stream * 16 + 3);
    if (stride != 1 || in_channels != out_channels) {
        projection_ =
            make_unit(in_channels, out_channels, 1, stride, common, rng, noise_stream * 16 + 4);
    }
}

Tensor BottleneckBlock::forward(const Tensor& input) {
    Tensor a = act_in_->forward(input);
    Tensor m = unit1_->forward(a);
    m = act1_->forward(m);
    m = unit2_->forward(m);
    m = act2_->forward(m);
    m = unit3_->forward(m);
    if (projection_) {
        m += projection_->forward(a);
        return m;
    }
    m += input;
    return m;
}

Tensor BottleneckBlock::backward(const Tensor& grad_output) {
    Tensor g = unit3_->backward(grad_output);
    g = act2_->backward(g);
    g = unit2_->backward(g);
    g = act1_->backward(g);
    Tensor grad_a = unit1_->backward(g);
    if (projection_) {
        grad_a += projection_->backward(grad_output);
        return act_in_->backward(grad_a);
    }
    Tensor grad_x = act_in_->backward(grad_a);
    grad_x += grad_output;  // identity shortcut
    return grad_x;
}

std::vector<nn::Parameter*> BottleneckBlock::parameters() {
    std::vector<nn::Parameter*> out;
    for (ConvUnit* u : conv_units()) {
        auto p = u->parameters();
        out.insert(out.end(), p.begin(), p.end());
    }
    return out;
}

void BottleneckBlock::set_training(bool training) {
    nn::Module::set_training(training);
    act_in_->set_training(training);
    act1_->set_training(training);
    act2_->set_training(training);
    for (ConvUnit* u : conv_units()) u->set_training(training);
}

std::vector<ConvUnit*> BottleneckBlock::conv_units() {
    std::vector<ConvUnit*> units{unit1_.get(), unit2_.get(), unit3_.get()};
    if (projection_) units.push_back(projection_.get());
    return units;
}

void BottleneckBlock::collect_state(const std::string& prefix, TensorMap& out) const {
    unit1_->collect_state(prefix + "u1.", out);
    unit2_->collect_state(prefix + "u2.", out);
    unit3_->collect_state(prefix + "u3.", out);
    if (projection_) projection_->collect_state(prefix + "proj.", out);
}

void BottleneckBlock::load_state(const std::string& prefix, const TensorMap& in) {
    unit1_->load_state(prefix + "u1.", in);
    unit2_->load_state(prefix + "u2.", in);
    unit3_->load_state(prefix + "u3.", in);
    if (projection_) projection_->load_state(prefix + "proj.", in);
}

BasicBlock::BasicBlock(std::size_t in_channels, std::size_t out_channels, std::size_t stride,
                       const LayerCommon& common, Rng& rng, std::uint64_t noise_stream) {
    act_in_ = make_activation(common);
    unit1_ = make_unit(in_channels, out_channels, 3, stride, common, rng, noise_stream * 16 + 1);
    act1_ = make_activation(common);
    unit2_ = make_unit(out_channels, out_channels, 3, 1, common, rng, noise_stream * 16 + 2);
    if (stride != 1 || in_channels != out_channels) {
        projection_ =
            make_unit(in_channels, out_channels, 1, stride, common, rng, noise_stream * 16 + 3);
    }
}

Tensor BasicBlock::forward(const Tensor& input) {
    Tensor a = act_in_->forward(input);
    Tensor m = unit1_->forward(a);
    m = act1_->forward(m);
    m = unit2_->forward(m);
    if (projection_) {
        m += projection_->forward(a);
        return m;
    }
    m += input;
    return m;
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
    Tensor g = unit2_->backward(grad_output);
    g = act1_->backward(g);
    Tensor grad_a = unit1_->backward(g);
    if (projection_) {
        grad_a += projection_->backward(grad_output);
        return act_in_->backward(grad_a);
    }
    Tensor grad_x = act_in_->backward(grad_a);
    grad_x += grad_output;
    return grad_x;
}

std::vector<nn::Parameter*> BasicBlock::parameters() {
    std::vector<nn::Parameter*> out;
    for (ConvUnit* u : conv_units()) {
        auto p = u->parameters();
        out.insert(out.end(), p.begin(), p.end());
    }
    return out;
}

void BasicBlock::set_training(bool training) {
    nn::Module::set_training(training);
    act_in_->set_training(training);
    act1_->set_training(training);
    for (ConvUnit* u : conv_units()) u->set_training(training);
}

std::vector<ConvUnit*> BasicBlock::conv_units() {
    std::vector<ConvUnit*> units{unit1_.get(), unit2_.get()};
    if (projection_) units.push_back(projection_.get());
    return units;
}

void BasicBlock::collect_state(const std::string& prefix, TensorMap& out) const {
    unit1_->collect_state(prefix + "u1.", out);
    unit2_->collect_state(prefix + "u2.", out);
    if (projection_) projection_->collect_state(prefix + "proj.", out);
}

void BasicBlock::load_state(const std::string& prefix, const TensorMap& in) {
    unit1_->load_state(prefix + "u1.", in);
    unit2_->load_state(prefix + "u2.", in);
    if (projection_) projection_->load_state(prefix + "proj.", in);
}

}  // namespace ams::models
