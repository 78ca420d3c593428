// BatchNorm2d: per-channel batch normalization over NCHW tensors.
//
// Batch normalization is central to this paper: Section 3 shows that the
// accuracy recovered by retraining with AMS error in the loop is almost
// entirely attributable to the batch norm layers learning to push
// activation means away from zero (Fig. 6, Table 2).
#pragma once

#include "nn/module.hpp"

namespace ams::nn {

/// Per-channel batch normalization.
///
/// Training mode uses batch statistics and maintains exponential running
/// averages; evaluation mode uses the running statistics. Scale (gamma)
/// and shift (beta) are trainable parameters; per the paper they are kept
/// in full precision (they fold into the conv / digital bias add).
class BatchNorm2d : public Module {
public:
    /// Throws std::invalid_argument if channels == 0 or eps <= 0.
    explicit BatchNorm2d(std::size_t channels, float eps = 1e-5f, float momentum = 0.1f);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override;
    void load_state(const std::string& prefix, const TensorMap& in) override;

    [[nodiscard]] std::size_t channels() const { return channels_; }
    [[nodiscard]] float eps() const { return eps_; }
    [[nodiscard]] Parameter& gamma() { return gamma_; }
    [[nodiscard]] Parameter& beta() { return beta_; }
    [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
    [[nodiscard]] const Tensor& running_var() const { return running_var_; }

    /// Raw-pointer eval-mode normalization over `batch` NCHW images of
    /// `channels() x spatial` each: out = gamma*(x-mean)*inv_std + beta
    /// from the running statistics. `in == out` is allowed (the SIMD
    /// primitive is elementwise). This is the hook the compiled-plan
    /// executor shares with the eval-mode forward: per-channel arithmetic is
    /// identical for any batch split, so applying it per image inside a
    /// fused GEMM tail stays bit-identical to the whole-tensor call.
    void normalize_eval(const float* in, float* out, std::size_t batch,
                        std::size_t spatial) const;

protected:
    std::vector<const Parameter*> own_parameters() const override;
    std::vector<Parameter*> own_parameters() override;

private:
    std::size_t channels_;
    float eps_;
    float momentum_;
    Parameter gamma_;
    Parameter beta_;
    Tensor running_mean_;
    Tensor running_var_;

    // Forward cache (training mode)
    Tensor cached_xhat_;
    std::vector<float> cached_inv_std_;
    Shape cached_shape_;
    bool cached_training_ = true;
};

}  // namespace ams::nn
