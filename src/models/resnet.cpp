#include "models/resnet.hpp"

#include <stdexcept>

namespace ams::models {

void ResNetConfig::validate() const {
    if (stages.empty()) throw std::invalid_argument("ResNetConfig: need at least one stage");
    if (num_classes < 2) throw std::invalid_argument("ResNetConfig: need >= 2 classes");
    if (in_channels == 0 || stem_channels == 0) {
        throw std::invalid_argument("ResNetConfig: zero channel count");
    }
    for (const StageSpec& s : stages) {
        if (s.blocks == 0 || s.channels == 0 || s.stride == 0) {
            throw std::invalid_argument("ResNetConfig: degenerate stage spec");
        }
    }
    common.vmac.validate();
    if (input_max_abs <= 0.0f) {
        throw std::invalid_argument("ResNetConfig: input_max_abs must be positive");
    }
}

ResNet::ResNet(const ResNetConfig& config) : config_(config) {
    config.validate();
    Rng rng(config.seed);
    const bool quantized = config.common.bits_x < quant::kFloatBits ||
                           config.common.bits_w < quant::kFloatBits;

    if (quantized) {
        quant_input_ =
            std::make_unique<quant::QuantInput>(config.input_max_abs, config.common.bits_x);
    }

    nn::Conv2dOptions stem_opts;
    stem_opts.in_channels = config.in_channels;
    stem_opts.out_channels = config.stem_channels;
    stem_opts.kernel = config.stem_kernel;
    stem_opts.stride = config.stem_stride;
    stem_opts.padding = config.stem_kernel / 2;
    stem_ = std::make_unique<ConvUnit>(stem_opts, config.common.bits_w, config.common.vmac,
                                       config.common.ams_enabled, rng, config.common.mode,
                                       /*noise_stream=*/1, config.common.device);
    if (config.stem_maxpool) {
        maxpool_ = std::make_unique<nn::MaxPool2d>(3, 2, 1);
    }

    std::size_t in_ch = config.stem_channels;
    std::uint64_t stream = 2;
    for (const StageSpec& stage : config.stages) {
        for (std::size_t b = 0; b < stage.blocks; ++b) {
            const std::size_t stride = (b == 0) ? stage.stride : 1;
            if (config.bottleneck) {
                blocks_.push_back(std::make_unique<BottleneckBlock>(
                    in_ch, stage.channels, stride, config.common, rng, stream++));
            } else {
                blocks_.push_back(std::make_unique<BasicBlock>(
                    in_ch, stage.channels, stride, config.common, rng, stream++));
            }
            in_ch = stage.channels;
        }
    }

    final_act_ = make_activation(config.common);
    if (quantized) {
        fc_act_ = std::make_unique<quant::QuantAct>(config.common.bits_x);
    }
    fc_ = std::make_unique<quant::QuantLinear>(in_ch, config.num_classes, config.common.bits_w,
                                               rng, /*bias=*/true);
    fc_injector_ = std::make_unique<vmac::ErrorInjector>(
        config.common.vmac, fc_->n_tot(), rng.split(0xFC), config.common.mode,
        config.common.device);
    fc_injector_->set_enabled(config.common.ams_enabled);
    apply_last_layer_policy();
}

void ResNet::apply_last_layer_policy() {
    if (!config_.common.ams_enabled) {
        fc_injector_->set_enabled(false);
        return;
    }
    // Paper Sec. 2: AMS error is injected into every layer at evaluation,
    // but the last layer is left out during training.
    const bool enable =
        !training() || config_.inject_last_layer_in_training;
    fc_injector_->set_enabled(enable);
}

Tensor ResNet::forward(const Tensor& input) {
    Tensor x = input;
    if (quant_input_) x = quant_input_->forward(x);
    x = stem_->forward(x);
    if (maxpool_) x = maxpool_->forward(x);
    for (auto& block : blocks_) x = block->forward(x);
    x = final_act_->forward(x);
    x = gap_.forward(x);
    if (fc_act_) x = fc_act_->forward(x);
    x = fc_->forward(x);
    return fc_injector_->forward(x);
}

Tensor ResNet::backward(const Tensor& grad_output) {
    Tensor g = fc_injector_->backward(grad_output);
    g = fc_->backward(g);
    if (fc_act_) g = fc_act_->backward(g);
    g = gap_.backward(g);
    g = final_act_->backward(g);
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) g = (*it)->backward(g);
    if (maxpool_) g = maxpool_->backward(g);
    g = stem_->backward(g);
    if (quant_input_) g = quant_input_->backward(g);
    return g;
}

std::vector<nn::Parameter*> ResNet::parameters() {
    std::vector<nn::Parameter*> out;
    auto append = [&out](std::vector<nn::Parameter*> p) {
        out.insert(out.end(), p.begin(), p.end());
    };
    append(stem_->parameters());
    for (auto& b : blocks_) append(b->parameters());
    append(fc_->parameters());
    return out;
}

void ResNet::set_training(bool training) {
    nn::Module::set_training(training);
    if (quant_input_) quant_input_->set_training(training);
    stem_->set_training(training);
    if (maxpool_) maxpool_->set_training(training);
    for (auto& b : blocks_) b->set_training(training);
    final_act_->set_training(training);
    gap_.set_training(training);
    if (fc_act_) fc_act_->set_training(training);
    fc_->set_training(training);
    fc_injector_->set_training(training);
    apply_last_layer_policy();
}

void ResNet::collect_state(const std::string& prefix, TensorMap& out) const {
    stem_->collect_state(prefix + "stem.", out);
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        blocks_[i]->collect_state(prefix + "block" + std::to_string(i) + ".", out);
    }
    fc_->collect_state(prefix + "fc.", out);
}

void ResNet::load_state(const std::string& prefix, const TensorMap& in) {
    stem_->load_state(prefix + "stem.", in);
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        blocks_[i]->load_state(prefix + "block" + std::to_string(i) + ".", in);
    }
    fc_->load_state(prefix + "fc.", in);
}

std::vector<ConvUnit*> ResNet::conv_units() {
    std::vector<ConvUnit*> units{stem_.get()};
    for (auto& b : blocks_) {
        auto u = b->conv_units();
        units.insert(units.end(), u.begin(), u.end());
    }
    return units;
}

std::size_t ResNet::num_conv_layers() {
    return conv_units().size();
}

std::vector<vmac::ErrorInjector*> ResNet::injectors() {
    std::vector<vmac::ErrorInjector*> out;
    for (ConvUnit* u : conv_units()) out.push_back(&u->injector());
    out.push_back(fc_injector_.get());
    return out;
}

void ResNet::set_ams_enabled(bool enabled) {
    config_.common.ams_enabled = enabled;
    for (ConvUnit* u : conv_units()) u->injector().set_enabled(enabled);
    fc_injector_->set_enabled(enabled);
    apply_last_layer_policy();
}

void ResNet::set_vmac(const vmac::VmacConfig& vmac_cfg) {
    config_.common.vmac = vmac_cfg;
    for (vmac::ErrorInjector* inj : injectors()) inj->set_config(vmac_cfg);
}

std::vector<nn::Parameter*> ResNet::group_parameters(LayerGroup group) {
    std::vector<nn::Parameter*> out;
    auto append = [&out](std::vector<nn::Parameter*> p) {
        out.insert(out.end(), p.begin(), p.end());
    };
    switch (group) {
        case LayerGroup::kConv:
            for (ConvUnit* u : conv_units()) append(u->conv_parameters());
            break;
        case LayerGroup::kBatchNorm:
            for (ConvUnit* u : conv_units()) append(u->bn_parameters());
            break;
        case LayerGroup::kFullyConnected:
            append(fc_->parameters());
            break;
    }
    return out;
}

void ResNet::set_group_frozen(LayerGroup group, bool frozen) {
    for (nn::Parameter* p : group_parameters(group)) p->frozen = frozen;
}

void ResNet::set_recording(bool on) {
    for (ConvUnit* u : conv_units()) u->set_recording(on);
}

void ResNet::reset_stats() {
    for (ConvUnit* u : conv_units()) u->stats().reset();
}

std::vector<double> ResNet::activation_means() {
    std::vector<double> means;
    for (ConvUnit* u : conv_units()) means.push_back(u->stats().mean());
    return means;
}

std::unique_ptr<ResNet> make_eval_replica(ResNet& primary, std::uint64_t instance) {
    ResNetConfig cfg = primary.config();
    // splitmix64-style seed mix: instance 0 keeps a distinct stream from
    // the primary too, so a pool never accidentally replays the noise
    // sequence the primary produced before the pool was built.
    std::uint64_t z = cfg.seed ^ (0x9E3779B97F4A7C15ULL * (instance + 1));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    cfg.seed = z ^ (z >> 31);

    auto replica = std::make_unique<ResNet>(cfg);
    // Deep-copy the trained state first (persistent buffers like BN
    // running statistics travel through the state map), then rebind the
    // large weight tensors to borrowed views — the deep copies made by
    // load_state are freed by the rebind, so only buffers stay owned.
    TensorMap state;
    primary.collect_state("", state);
    replica->load_state("", state);
    (void)nn::share_parameters_with(*replica, primary);
    (void)nn::release_gradients(*replica);
    replica->set_training(false);
    return replica;
}

ResNetConfig mini_resnet_config(const LayerCommon& common, std::size_t num_classes,
                                float input_max_abs, std::uint64_t seed) {
    ResNetConfig cfg;
    cfg.num_classes = num_classes;
    cfg.in_channels = 3;
    cfg.stem_channels = 8;
    cfg.stem_kernel = 3;
    cfg.stem_stride = 1;
    cfg.stem_maxpool = false;
    cfg.stages = {{1, 32, 1}, {2, 64, 2}, {2, 128, 2}};
    cfg.bottleneck = true;
    cfg.common = common;
    cfg.input_max_abs = input_max_abs;
    cfg.seed = seed;
    return cfg;
}

ResNetConfig tiny_resnet_config(const LayerCommon& common, std::size_t num_classes,
                                std::uint64_t seed) {
    ResNetConfig cfg;
    cfg.num_classes = num_classes;
    cfg.in_channels = 3;
    cfg.stem_channels = 4;
    cfg.stages = {{1, 8, 1}, {1, 16, 2}};
    cfg.bottleneck = false;
    cfg.common = common;
    cfg.seed = seed;
    return cfg;
}

ResNetConfig resnet50_config(const LayerCommon& common, std::size_t num_classes) {
    ResNetConfig cfg;
    cfg.num_classes = num_classes;
    cfg.in_channels = 3;
    cfg.stem_channels = 64;
    cfg.stem_kernel = 7;
    cfg.stem_stride = 2;
    cfg.stem_maxpool = true;
    cfg.stages = {{3, 256, 1}, {4, 512, 2}, {6, 1024, 2}, {3, 2048, 2}};
    cfg.bottleneck = true;
    cfg.common = common;
    return cfg;
}

}  // namespace ams::models
