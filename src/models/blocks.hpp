// Residual blocks (basic and bottleneck) with quantization and AMS error
// injection in every convolution, mirroring ResNet-50's block structure.
#pragma once

#include <memory>

#include "models/conv_unit.hpp"

namespace ams::models {

/// Options shared by all layers of a network build.
struct LayerCommon {
    std::size_t bits_w = 32;  ///< weight bits (kFloatBits = no quantization)
    std::size_t bits_x = 32;  ///< activation bits
    vmac::VmacConfig vmac;    ///< ENOB / Nmult for the injectors
    bool ams_enabled = false;
    vmac::InjectionMode mode = vmac::InjectionMode::kLumpedGaussian;
    /// Per-chip statics (offsets/drift) layered into every injector;
    /// inactive by default, so legacy builds are untouched.
    vmac::DeviceProfile device{};
};

/// Creates the activation used throughout a build: QuantAct(bits_x) for
/// quantized networks, plain ReLU for the FP32 baseline.
[[nodiscard]] std::unique_ptr<nn::Module> make_activation(const LayerCommon& common);

/// Common interface of the residual blocks: lets the network builder
/// enumerate every conv unit for freezing / recording / retuning.
class ResidualBlock : public nn::Module {
public:
    [[nodiscard]] virtual std::vector<ConvUnit*> conv_units() = 0;
};

/// ResNet bottleneck block: 1x1 reduce -> 3x3 -> 1x1 expand, with an
/// identity or 1x1-projection shortcut. The block-leading activation is
/// shared by the main path and the projection (post-activation ResNet
/// topology); the shortcut addition is digital, so no AMS error is added
/// at the join (paper Sec. 2: partial sums accumulate digitally).
class BottleneckBlock : public ResidualBlock {
public:
    /// mid = out_channels / 4 as in ResNet-50. A projection shortcut is
    /// inserted iff stride != 1 or in_channels != out_channels.
    BottleneckBlock(std::size_t in_channels, std::size_t out_channels, std::size_t stride,
                    const LayerCommon& common, Rng& rng, std::uint64_t noise_stream);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<nn::Parameter*> parameters() override;
    void set_training(bool training) override;
    [[nodiscard]] std::string name() const override { return "BottleneckBlock"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override;
    void load_state(const std::string& prefix, const TensorMap& in) override;

    /// All conv units of this block (3 or 4 with projection), in order.
    [[nodiscard]] std::vector<ConvUnit*> conv_units() override;

    /// Structure accessors for the graph compiler (call order: act_in,
    /// unit1, act1, unit2, act2, unit3, then projection, then the add).
    [[nodiscard]] nn::Module& act_in() { return *act_in_; }
    [[nodiscard]] ConvUnit& unit1() { return *unit1_; }
    [[nodiscard]] nn::Module& act1() { return *act1_; }
    [[nodiscard]] ConvUnit& unit2() { return *unit2_; }
    [[nodiscard]] nn::Module& act2() { return *act2_; }
    [[nodiscard]] ConvUnit& unit3() { return *unit3_; }
    [[nodiscard]] ConvUnit* projection() { return projection_.get(); }

private:
    std::unique_ptr<nn::Module> act_in_;
    std::unique_ptr<ConvUnit> unit1_;
    std::unique_ptr<nn::Module> act1_;
    std::unique_ptr<ConvUnit> unit2_;
    std::unique_ptr<nn::Module> act2_;
    std::unique_ptr<ConvUnit> unit3_;
    std::unique_ptr<ConvUnit> projection_;  ///< null for identity shortcut
};

/// ResNet basic block: two 3x3 convolutions (used by the smaller presets).
class BasicBlock : public ResidualBlock {
public:
    BasicBlock(std::size_t in_channels, std::size_t out_channels, std::size_t stride,
               const LayerCommon& common, Rng& rng, std::uint64_t noise_stream);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<nn::Parameter*> parameters() override;
    void set_training(bool training) override;
    [[nodiscard]] std::string name() const override { return "BasicBlock"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override;
    void load_state(const std::string& prefix, const TensorMap& in) override;

    [[nodiscard]] std::vector<ConvUnit*> conv_units() override;

    /// Structure accessors for the graph compiler (call order: act_in,
    /// unit1, act1, unit2, then projection, then the add).
    [[nodiscard]] nn::Module& act_in() { return *act_in_; }
    [[nodiscard]] ConvUnit& unit1() { return *unit1_; }
    [[nodiscard]] nn::Module& act1() { return *act1_; }
    [[nodiscard]] ConvUnit& unit2() { return *unit2_; }
    [[nodiscard]] ConvUnit* projection() { return projection_.get(); }

private:
    std::unique_ptr<nn::Module> act_in_;
    std::unique_ptr<ConvUnit> unit1_;
    std::unique_ptr<nn::Module> act1_;
    std::unique_ptr<ConvUnit> unit2_;
    std::unique_ptr<ConvUnit> projection_;
};

}  // namespace ams::models
