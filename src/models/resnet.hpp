// ResNet: the full network builder — stem, residual stages, global average
// pool, and quantized FC head with AMS error injection, in the FP32,
// quantized-only, and quantized+AMS variants the paper studies.
#pragma once

#include <memory>
#include <optional>

#include "models/blocks.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace ams::models {

/// One residual stage: `blocks` blocks at `channels` output channels; the
/// first block applies `stride` (and a projection shortcut if needed).
struct StageSpec {
    std::size_t blocks = 1;
    std::size_t channels = 64;
    std::size_t stride = 1;
};

/// Full network description.
struct ResNetConfig {
    std::size_t num_classes = 10;
    std::size_t in_channels = 3;
    std::size_t stem_channels = 16;
    std::size_t stem_kernel = 3;
    std::size_t stem_stride = 1;
    bool stem_maxpool = false;  ///< 3x3/2 max pool after the stem (ResNet-50)
    std::vector<StageSpec> stages;
    bool bottleneck = true;

    LayerCommon common;  ///< quantization bitwidths, VMAC config, AMS switch

    /// Max |input| over the dataset; the first layer rescales by this
    /// before quantizing (paper Sec. 2). Ignored in the FP32 build.
    float input_max_abs = 1.0f;

    /// Paper Sec. 2: injecting AMS error into the last (FC) layer during
    /// training destroys learning, so it is left out while training and
    /// enabled at evaluation. Set true to reproduce that failure mode.
    bool inject_last_layer_in_training = false;

    std::uint64_t seed = 42;

    /// Throws std::invalid_argument on an empty stage list etc.
    void validate() const;
};

/// Parameter groups for the Table 2 selective-freezing study.
enum class LayerGroup { kConv, kBatchNorm, kFullyConnected };

/// The network.
class ResNet : public nn::Module {
public:
    explicit ResNet(const ResNetConfig& config);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<nn::Parameter*> parameters() override;
    void set_training(bool training) override;
    [[nodiscard]] std::string name() const override { return "ResNet"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override;
    void load_state(const std::string& prefix, const TensorMap& in) override;

    [[nodiscard]] const ResNetConfig& config() const { return config_; }

    /// Every conv unit, stem first, in forward order. (The FC head is not
    /// a conv unit; see fc_injector().)
    [[nodiscard]] std::vector<ConvUnit*> conv_units();

    /// Conv-layer count including downsampling projections (ResNet-50: 53).
    [[nodiscard]] std::size_t num_conv_layers();

    /// All error injectors: one per conv unit plus the FC injector.
    [[nodiscard]] std::vector<vmac::ErrorInjector*> injectors();
    [[nodiscard]] vmac::ErrorInjector& fc_injector() { return *fc_injector_; }

    /// Structure accessors for the graph compiler, in forward order:
    /// quant_input (null in FP32 builds), stem, stem_pool (null unless
    /// configured), blocks, final_activation, gap, fc_activation (null in
    /// FP32 builds), fc, then fc_injector().
    [[nodiscard]] quant::QuantInput* quant_input() { return quant_input_.get(); }
    [[nodiscard]] ConvUnit& stem() { return *stem_; }
    [[nodiscard]] nn::MaxPool2d* stem_pool() { return maxpool_.get(); }
    [[nodiscard]] std::vector<std::unique_ptr<ResidualBlock>>& blocks() { return blocks_; }
    [[nodiscard]] nn::Module& final_activation() { return *final_act_; }
    [[nodiscard]] nn::GlobalAvgPool& gap() { return gap_; }
    [[nodiscard]] quant::QuantAct* fc_activation() { return fc_act_.get(); }
    [[nodiscard]] quant::QuantLinear& fc() { return *fc_; }

    /// Master AMS switch (both conv and FC injectors).
    void set_ams_enabled(bool enabled);

    /// Retunes every injector to a new VMAC cell (ENOB sweeps).
    void set_vmac(const vmac::VmacConfig& vmac_cfg);

    /// Freezes / unfreezes one parameter group (Table 2).
    void set_group_frozen(LayerGroup group, bool frozen);
    [[nodiscard]] std::vector<nn::Parameter*> group_parameters(LayerGroup group);

    /// Fig. 6 instrumentation: per-conv-layer activation statistics at the
    /// injection point.
    void set_recording(bool on);
    void reset_stats();
    [[nodiscard]] std::vector<double> activation_means();

private:
    ResNetConfig config_;
    std::unique_ptr<quant::QuantInput> quant_input_;  ///< null in FP32 builds
    std::unique_ptr<ConvUnit> stem_;
    std::unique_ptr<nn::MaxPool2d> maxpool_;          ///< null unless configured
    std::vector<std::unique_ptr<ResidualBlock>> blocks_;
    std::unique_ptr<nn::Module> final_act_;
    nn::GlobalAvgPool gap_;
    std::unique_ptr<quant::QuantAct> fc_act_;         ///< null in FP32 builds
    std::unique_ptr<quant::QuantLinear> fc_;
    std::unique_ptr<vmac::ErrorInjector> fc_injector_;

    void apply_last_layer_policy();
};

/// Builds an evaluation-only replica of `primary` for a serving instance
/// pool (serve/server.hpp):
///
///   * same architecture and trained state — persistent buffers (BN
///     running statistics) are deep-copied, but every weight tensor is a
///     *borrowed view* over `primary`'s storage (nn::share_parameters_with),
///     so an added instance costs only its buffers, injector state, and
///     arenas, not another copy of the network;
///   * gradient accumulators are released (the replica never trains);
///   * the replica's noise streams are reseeded from (config seed,
///     instance), so stochastic AMS error realizations are statistically
///     independent across instances — two replicas with the same
///     `instance` id reproduce the same realization, and deterministic
///     (noise-free / bit_exact) configurations stay bit-identical to
///     `primary` at any instance id.
///
/// `primary` must outlive the replica, and its weights must not be
/// mutated (trained, re-loaded) while replicas exist.
[[nodiscard]] std::unique_ptr<ResNet> make_eval_replica(ResNet& primary, std::uint64_t instance);

/// CPU-trainable preset structurally faithful to ResNet-50 (bottleneck
/// blocks, BN everywhere, projection downsampling): 22 conv layers on
/// 16x16 inputs. `common` selects FP32 / quantized / AMS variants.
[[nodiscard]] ResNetConfig mini_resnet_config(const LayerCommon& common,
                                              std::size_t num_classes = 10,
                                              float input_max_abs = 1.0f,
                                              std::uint64_t seed = 42);

/// Very small basic-block network for unit tests (runs in milliseconds).
[[nodiscard]] ResNetConfig tiny_resnet_config(const LayerCommon& common,
                                              std::size_t num_classes = 4,
                                              std::uint64_t seed = 7);

/// The full ResNet-50 structure (224x224 stem, 3/4/6/3 bottleneck stages,
/// 53 conv layers). Used for structural verification; far too slow to
/// train here.
[[nodiscard]] ResNetConfig resnet50_config(const LayerCommon& common,
                                           std::size_t num_classes = 1000);

}  // namespace ams::models
