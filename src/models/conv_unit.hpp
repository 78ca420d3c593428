// ConvUnit: one quantized convolutional layer with AMS error injection,
// exactly the Fig. 3 pipeline segment  conv -> AMS error -> batch norm.
#pragma once

#include <memory>
#include <optional>

#include "ams/error_injector.hpp"
#include "nn/batchnorm.hpp"
#include "quant/quant_modules.hpp"

namespace ams::models {

/// Accumulates the mean of a layer's post-injection activations across
/// forward passes — the quantity Fig. 6 plots per conv layer over the
/// whole validation set.
class ActivationStats {
public:
    void reset() {
        sum_ = 0.0;
        count_ = 0;
    }
    void accumulate(const Tensor& t) {
        for (std::size_t i = 0; i < t.size(); ++i) sum_ += t[i];
        count_ += t.size();
    }
    [[nodiscard]] double mean() const {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }
    [[nodiscard]] std::size_t count() const { return count_; }

private:
    double sum_ = 0.0;
    std::size_t count_ = 0;
};

/// Quantized conv -> AMS error injection -> batch norm.
///
/// The injector's N_tot is derived from the convolution geometry
/// (C_in * K * K). The unit records post-injection activation statistics
/// when recording is enabled (Fig. 6).
class ConvUnit : public nn::Module {
public:
    /// `vmac` provides ENOB/Nmult; `ams_enabled` can be toggled later.
    /// `device` adds chip-level statics to the injector (inactive default).
    ConvUnit(const nn::Conv2dOptions& opts, std::size_t bits_w, const vmac::VmacConfig& vmac,
             bool ams_enabled, Rng& rng, vmac::InjectionMode mode,
             std::uint64_t noise_stream, const vmac::DeviceProfile& device = {});

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<nn::Parameter*> parameters() override;
    void set_training(bool training) override;
    [[nodiscard]] std::string name() const override { return "ConvUnit"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override;
    void load_state(const std::string& prefix, const TensorMap& in) override;

    [[nodiscard]] quant::QuantConv2d& conv() { return conv_; }
    [[nodiscard]] vmac::ErrorInjector& injector() { return injector_; }
    [[nodiscard]] nn::BatchNorm2d& bn() { return bn_; }

    /// Parameter group accessors for the Table 2 freezing study.
    [[nodiscard]] std::vector<nn::Parameter*> conv_parameters() { return conv_.parameters(); }
    [[nodiscard]] std::vector<nn::Parameter*> bn_parameters() { return bn_.parameters(); }

    void set_recording(bool on) { recording_ = on; }
    [[nodiscard]] bool recording() const { return recording_; }
    [[nodiscard]] ActivationStats& stats() { return stats_; }

private:
    quant::QuantConv2d conv_;
    vmac::ErrorInjector injector_;
    nn::BatchNorm2d bn_;
    bool recording_ = false;
    ActivationStats stats_;
};

}  // namespace ams::models
