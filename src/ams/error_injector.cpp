#include "ams/error_injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"

namespace ams::vmac {

namespace {

// RNG tile width, in output elements. Fixed — never derived from the
// thread count — so the mapping from element to noise stream depends only
// on tensor position and the injected sequence is reproducible at any
// AMSNET_THREADS. One switch of tile width is a (seed-level) change of
// the exact noise realization, recorded in EXPERIMENTS.md.
constexpr std::size_t kRngTile = 2048;

}  // namespace

ErrorInjector::ErrorInjector(VmacConfig config, std::size_t n_tot, Rng rng, InjectionMode mode,
                             const DeviceProfile& device)
    : config_(config),
      n_tot_(n_tot),
      streams_(runtime::RngStream::from(rng)),
      mode_(mode),
      device_(device) {
    config_.validate();
    device_.validate();
    if (n_tot == 0) throw std::invalid_argument("ErrorInjector: n_tot must be > 0");
}

void ErrorInjector::set_config(const VmacConfig& config) {
    config.validate();
    config_ = config;
}

double ErrorInjector::error_stddev() const {
    return total_error_stddev(config_, n_tot_);
}

Tensor ErrorInjector::forward(const Tensor& input) {
    if (!enabled_) return input;
    Tensor out = input;
    inject(out);
    return out;
}

void ErrorInjector::inject(Tensor& out) {
    const Shape& s = out.shape();
    const std::size_t batch = s.rank() > 0 ? s.dim(0) : 1;
    const std::size_t channels = s.rank() > 1 ? s.dim(1) : 1;
    inject_inplace(out.data(), out.size(), batch, channels);
}

void ErrorInjector::apply_device_field(float* data, std::size_t count, std::size_t batch,
                                       std::size_t channels) {
    const double gain = device_.drift_gain();
    const double sigma_out =
        std::sqrt(static_cast<double>(vmacs_per_output(config_, n_tot_))) *
        device_.cell_offset_sigma;
    if (gain == 1.0 && sigma_out == 0.0) return;  // exact pass-through, no -0.0 flips

    // Degenerate shapes (rank-1 buffers, mismatched strides) collapse to
    // one shared channel rather than guessing a layout.
    std::size_t b = batch == 0 ? 1 : batch;
    std::size_t ch = channels == 0 ? 1 : channels;
    if (count % b != 0) b = 1;
    std::size_t per_sample = count / b;
    if (per_sample % ch != 0) ch = 1;
    const std::size_t spatial = per_sample / ch;

    if (offset_field_.size() < ch) {
        // Frozen realization: (chip, layer, channel)-keyed unit normals.
        // The injector's stream seed doubles as a stable layer identity —
        // it is a pure function of the model seed and layer position.
        for (std::size_t c = offset_field_.size(); c < ch; ++c) {
            offset_field_.push_back(
                device_.cell_normal(kFamilyLayerOffset, streams_.seed(), c));
        }
    }
    runtime::metrics::add(runtime::metrics::Counter::kVariationFieldSamples,
                          static_cast<std::uint64_t>(count));
    for (std::size_t n = 0; n < b; ++n) {
        float* sample = data + n * per_sample;
        for (std::size_t c = 0; c < ch; ++c) {
            const double offset = sigma_out * offset_field_[c];
            float* row = sample + c * spatial;
            for (std::size_t i = 0; i < spatial; ++i) {
                row[i] = static_cast<float>(gain * row[i] + offset);
            }
        }
    }
}

void ErrorInjector::inject_inplace(float* data, std::size_t count, std::size_t batch,
                                   std::size_t channels) {
    if (device_.active()) apply_device_field(data, count, batch, channels);
    runtime::trace::Span span("ErrorInjector.inject",
                              mode_ == InjectionMode::kLumpedGaussian ? "mode=lumped_gaussian"
                                                                      : "mode=per_vmac_uniform");
    runtime::metrics::add(runtime::metrics::Counter::kInjectedSamples,
                          static_cast<std::uint64_t>(count));
    const runtime::RngStream pass_streams = streams_.substream(forward_count_++);
    const std::size_t tiles = (count + kRngTile - 1) / kRngTile;

    switch (mode_) {
        case InjectionMode::kLumpedGaussian: {
            const double sigma = total_error_stddev(config_, n_tot_);
            runtime::parallel_for(
                0, tiles, runtime::suggest_grain(tiles, 1),
                [&](std::size_t t_begin, std::size_t t_end) {
                    for (std::size_t t = t_begin; t < t_end; ++t) {
                        Rng tile_rng = pass_streams.stream(t);
                        const std::size_t hi = std::min(count, (t + 1) * kRngTile);
                        for (std::size_t i = t * kRngTile; i < hi; ++i) {
                            data[i] += static_cast<float>(tile_rng.normal(0.0, sigma));
                        }
                    }
                });
            break;
        }
        case InjectionMode::kPerVmacUniform: {
            const double lsb = vmac_lsb(config_);
            const std::size_t cells = vmacs_per_output(config_, n_tot_);
            runtime::parallel_for(
                0, tiles, runtime::suggest_grain(tiles, 1),
                [&](std::size_t t_begin, std::size_t t_end) {
                    for (std::size_t t = t_begin; t < t_end; ++t) {
                        Rng tile_rng = pass_streams.stream(t);
                        const std::size_t hi = std::min(count, (t + 1) * kRngTile);
                        for (std::size_t i = t * kRngTile; i < hi; ++i) {
                            double err = 0.0;
                            for (std::size_t v = 0; v < cells; ++v) {
                                err += tile_rng.uniform(-0.5 * lsb, 0.5 * lsb);
                            }
                            data[i] += static_cast<float>(err);
                        }
                    }
                });
            break;
        }
    }
}

}  // namespace ams::vmac
