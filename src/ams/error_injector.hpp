// ErrorInjector: network-level AMS error injection (paper Sec. 2, Fig. 3).
//
// The injector sits between a (quantized) convolution / FC layer and its
// batch norm, lumping the error of all the VMAC cells that compute one
// output activation into a single additive sample at the digitally
// accumulated output. The error is applied in the forward pass only; the
// backward pass is the identity ("we inject this error during only the
// forward pass, leaving the backward pass untouched").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ams/device_profile.hpp"
#include "ams/error_model.hpp"
#include "nn/module.hpp"
#include "runtime/rng_stream.hpp"

namespace ams::vmac {

/// How the lumped error sample is drawn.
enum class InjectionMode {
    /// Eq. 2: one N(0, sqrt(Ntot/Nmult) * LSB / sqrt(12)) sample per output.
    /// This is the model the paper trains and evaluates with.
    kLumpedGaussian,
    /// Section 4 "improving our error models": draw ceil(Ntot/Nmult)
    /// independent uniform(-LSB/2, LSB/2) samples per output and sum them —
    /// per-VMAC granularity without the normality assumption. Used by the
    /// ablation bench to validate the lumped model.
    kPerVmacUniform,
};

/// Additive AMS noise module.
class ErrorInjector : public nn::Module {
public:
    /// `n_tot` is the multiplications per output activation of the layer
    /// this injector follows. `rng` seeds the per-tile noise streams
    /// (fixed tiles of the output tensor, one derived stream per tile per
    /// forward pass), so injection is bit-identical at any AMSNET_THREADS.
    /// `device` adds the lumped chip-level statics of a DeviceProfile on
    /// top of the stochastic Eq. 2 noise (see inject_inplace); inactive
    /// by default. Throws std::invalid_argument on bad config/profile.
    ErrorInjector(VmacConfig config, std::size_t n_tot, Rng rng,
                  InjectionMode mode = InjectionMode::kLumpedGaussian,
                  const DeviceProfile& device = {});

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override { return grad_output; }
    [[nodiscard]] std::string name() const override { return "ErrorInjector"; }

    /// Master switch; a disabled injector is an exact pass-through. The
    /// training harness uses this to realize the paper's per-phase policy
    /// (e.g. no injection in the last layer during training).
    void set_enabled(bool enabled) { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Retunes the cell (used by the ENOB sweeps).
    void set_config(const VmacConfig& config);
    [[nodiscard]] const VmacConfig& config() const { return config_; }
    [[nodiscard]] std::size_t n_tot() const { return n_tot_; }

    /// Std-dev of the injected error (Eq. 2); the "dashes" of Fig. 6.
    [[nodiscard]] double error_stddev() const;

    /// The chip-level statics applied before the stochastic noise.
    [[nodiscard]] const DeviceProfile& device() const { return device_; }

    /// Adds one forward pass worth of noise to `data[0..count)` in place,
    /// consuming one noise epoch. This is the raw hook forward() and the
    /// compiled-plan executor share: the per-tile stream mapping depends
    /// only on element position, so the realization is identical on both
    /// paths for the same buffer contents. Callers must honor the
    /// enabled() switch themselves (a disabled injector's forward copies
    /// without consuming an epoch).
    ///
    /// With an active DeviceProfile a deterministic chip pre-pass runs
    /// first: data = drift_gain * data + sigma_out * field[channel],
    /// where `field` holds frozen unit normals keyed by (chip, layer,
    /// output channel) and sigma_out = sqrt(ceil(Ntot/Nmult)) *
    /// cell_offset_sigma lumps the column's per-cell offsets, mirroring a
    /// weight-stationary crossbar where every spatial position of one
    /// output channel reuses the same physical column. `batch`/`channels`
    /// describe the buffer's leading dims (the forward overloads derive
    /// them from the tensor shape; rank-1 buffers use 1/1). The pre-pass
    /// is position-keyed and RNG-state-free, so it preserves the
    /// thread-count invariance and module-vs-plan identity. Backward
    /// stays the identity (straight-through estimation): retraining sees
    /// the statics in the forward loss only, which is exactly the robust
    /// retraining recipe of the STE-extension paper.
    void inject_inplace(float* data, std::size_t count, std::size_t batch = 1,
                        std::size_t channels = 1);

private:
    /// Adds one forward pass worth of noise to `out` in place, consuming
    /// one noise epoch. Shared by both forward overloads.
    void inject(Tensor& out);

    /// The deterministic chip pre-pass described at inject_inplace().
    void apply_device_field(float* data, std::size_t count, std::size_t batch,
                            std::size_t channels);

    VmacConfig config_;
    std::size_t n_tot_;
    runtime::RngStream streams_;       ///< root of the per-tile noise streams
    std::uint64_t forward_count_ = 0;  ///< distinct streams per forward pass
    InjectionMode mode_;
    bool enabled_ = true;
    DeviceProfile device_;              ///< inactive by default
    std::vector<double> offset_field_;  ///< frozen per-channel unit normals
};

}  // namespace ams::vmac
