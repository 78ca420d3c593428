#include "models/conv_unit.hpp"

namespace ams::models {

ConvUnit::ConvUnit(const nn::Conv2dOptions& opts, std::size_t bits_w,
                   const vmac::VmacConfig& vmac_cfg, bool ams_enabled, Rng& rng,
                   vmac::InjectionMode mode, std::uint64_t noise_stream,
                   const vmac::DeviceProfile& device)
    : conv_(opts, bits_w, rng),
      injector_(vmac_cfg, opts.in_channels * opts.kernel * opts.kernel,
                rng.split(noise_stream), mode, device),
      bn_(opts.out_channels) {
    injector_.set_enabled(ams_enabled);
}

Tensor ConvUnit::forward(const Tensor& input) {
    Tensor x = conv_.forward(input);
    x = injector_.forward(x);
    if (recording_) stats_.accumulate(x);
    return bn_.forward(x);
}

Tensor ConvUnit::backward(const Tensor& grad_output) {
    Tensor g = bn_.backward(grad_output);
    g = injector_.backward(g);
    return conv_.backward(g);
}

std::vector<nn::Parameter*> ConvUnit::parameters() {
    auto params = conv_.parameters();
    auto bn_params = bn_.parameters();
    params.insert(params.end(), bn_params.begin(), bn_params.end());
    return params;
}

void ConvUnit::set_training(bool training) {
    nn::Module::set_training(training);
    conv_.set_training(training);
    injector_.set_training(training);
    bn_.set_training(training);
}

void ConvUnit::collect_state(const std::string& prefix, TensorMap& out) const {
    conv_.collect_state(prefix + "conv.", out);
    bn_.collect_state(prefix + "bn.", out);
}

void ConvUnit::load_state(const std::string& prefix, const TensorMap& in) {
    conv_.load_state(prefix + "conv.", in);
    bn_.load_state(prefix + "bn.", in);
}

}  // namespace ams::models
