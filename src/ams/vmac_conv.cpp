#include "ams/vmac_conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"

namespace ams::vmac {

namespace {

/// Span tag "backend=<kind> in=BxCxHxW" — only formatted when spans are
/// actually recording, so the snprintf stays off the off/counters paths.
void format_forward_tag(char* tag, std::size_t capacity, BackendKind kind, const Shape& in) {
    tag[0] = '\0';
    if (!runtime::metrics::spans_enabled()) return;
    std::snprintf(tag, capacity, "backend=%s in=%zux%zux%zux%zu", backend_kind_name(kind),
                  in.dim(0), in.dim(1), in.dim(2), in.dim(3));
}

}  // namespace

VmacConv2d::VmacConv2d(Tensor weight, std::size_t stride, std::size_t padding,
                       const VmacConfig& config, const AnalogOptions& analog,
                       const BackendOptions& backend, Rng rng)
    : weight_(std::move(weight)),
      stride_(stride),
      padding_(padding),
      backend_(make_backend(config, analog, backend)),
      streams_(runtime::RngStream::from(rng)) {
    if (weight_.rank() != 4) {
        throw std::invalid_argument("VmacConv2d: weight must be {Cout, Cin, K, K}, got " +
                                    weight_.shape().str());
    }
    if (weight_.dim(2) != weight_.dim(3)) {
        throw std::invalid_argument("VmacConv2d: only square kernels supported");
    }
    if (stride == 0) throw std::invalid_argument("VmacConv2d: stride must be nonzero");
}

std::size_t VmacConv2d::n_tot() const {
    return weight_.dim(1) * weight_.dim(2) * weight_.dim(3);
}

ConvLowering VmacConv2d::make_lowering(const Shape& in) const {
    if (in.rank() != 4 || in.dim(1) != weight_.dim(1)) {
        throw std::invalid_argument("VmacConv2d::forward: bad input " + in.str());
    }
    const std::size_t kernel = weight_.dim(2);
    return ConvLowering(ConvGeometry{weight_.dim(1), in.dim(2), in.dim(3), kernel, kernel,
                                     stride_,        stride_,   padding_, padding_});
}

void VmacConv2d::compute_tiles(std::size_t t_begin, std::size_t t_end,
                               const runtime::RngStream& pass_streams, const float* columns,
                               std::size_t out_spatial, std::size_t patch, double* w_chunk,
                               double* x_chunk, float* out) {
    const std::size_t cout = weight_.dim(0);
    const std::size_t nmult = backend_->config().nmult;
    // One worker-local backend: stateful datapaths (delta-sigma) carry
    // per-output state that must never be shared across workers.
    const std::unique_ptr<VmacBackend> backend = backend_->clone();
    for (std::size_t t = t_begin; t < t_end; ++t) {
        // One output accumulator per pixel of this tile; the per-chunk ADC
        // ledger lives inside the backend's accumulate().
        runtime::metrics::add(runtime::metrics::Counter::kVmacOutputs, out_spatial);
        const std::size_t b = t / cout;
        const std::size_t oc = t % cout;
        Rng tile_rng = pass_streams.stream(t);
        const float* cols = columns + b * patch * out_spatial;
        const float* wrow = weight_.data() + oc * patch;
        for (std::size_t pix = 0; pix < out_spatial; ++pix) {
            double acc = 0.0;
            // Chunks of one output accumulator stream contiguously: the
            // output stationarity stateful backends rely on.
            for (std::size_t start = 0; start < patch; start += nmult) {
                const std::size_t len = std::min(nmult, patch - start);
                for (std::size_t i = 0; i < len; ++i) {
                    w_chunk[i] = wrow[start + i];
                    x_chunk[i] = cols[(start + i) * out_spatial + pix];
                }
                acc += backend->accumulate(std::span(w_chunk, len), std::span(x_chunk, len),
                                           tile_rng);
            }
            acc += backend->finish_output(tile_rng);
            out[(b * cout + oc) * out_spatial + pix] = static_cast<float>(acc);
        }
    }
}

Tensor VmacConv2d::forward(const Tensor& input) {
    char tag[runtime::trace::Event::kTagCapacity + 1];
    format_forward_tag(tag, sizeof(tag), backend_->kind(), input.shape());
    runtime::trace::Span span("VmacConv2d.forward", tag);
    const ConvLowering low = make_lowering(input.shape());
    const std::size_t batch = input.dim(0);
    const std::size_t cout = weight_.dim(0);
    const std::size_t nmult = backend_->config().nmult;

    Tensor output(Shape{batch, cout, low.out_h(), low.out_w()});

    // Lower the whole batch first (write-disjoint per image), then walk
    // the (image, out-channel) tiles in parallel. Each tile owns a noise
    // stream keyed by (forward pass, tile index), so the injected AMS
    // error is independent of how the pool schedules the tiles.
    std::vector<float> columns(batch * low.columns_floats());
    low.lower_batch(input.data(), batch, columns.data());

    const runtime::RngStream pass_streams = streams_.substream(forward_count_++);
    const std::size_t tiles = batch * cout;
    runtime::parallel_for(
        0, tiles, runtime::suggest_grain(tiles, 1),
        [&](std::size_t t_begin, std::size_t t_end) {
            std::vector<double> w_chunk(nmult), x_chunk(nmult);
            compute_tiles(t_begin, t_end, pass_streams, columns.data(), low.out_spatial(),
                          low.patch_size(), w_chunk.data(), x_chunk.data(), output.data());
        });
    return output;
}

Shape VmacConv2d::output_shape(const Shape& in) const {
    const ConvLowering low = make_lowering(in);
    return Shape{in.dim(0), weight_.dim(0), low.out_h(), low.out_w()};
}

void VmacConv2d::forward_planned(const float* input, const Shape& in_shape, float* out,
                                 runtime::EvalContext& ctx) {
    char tag[runtime::trace::Event::kTagCapacity + 1];
    format_forward_tag(tag, sizeof(tag), backend_->kind(), in_shape);
    runtime::trace::Span span("VmacConv2d.forward", tag);
    const ConvLowering low = make_lowering(in_shape);
    const std::size_t batch = in_shape.dim(0);
    const std::size_t cout = weight_.dim(0);
    const std::size_t nmult = backend_->config().nmult;

    float* columns = ctx.reserve_scratch(this, 0, batch * low.columns_floats());
    low.lower_batch(input, batch, columns);

    const runtime::RngStream pass_streams = streams_.substream(forward_count_++);
    const std::size_t tiles = batch * cout;
    const std::size_t grain = runtime::suggest_grain(tiles, 1);
    // Re-reserve every chunk's staging pair serially before entering the
    // parallel region; the lookups inside the region are then read-only.
    const std::size_t chunks = (tiles + grain - 1) / grain;
    for (std::size_t c = 0; c < chunks; ++c) {
        (void)ctx.reserve_scratch(this, static_cast<int>(1 + c), 4 * nmult);
    }
    runtime::parallel_for(0, tiles, grain, [&](std::size_t t_begin, std::size_t t_end) {
        double* staging = reinterpret_cast<double*>(
            ctx.reserve_scratch(this, static_cast<int>(1 + t_begin / grain), 4 * nmult));
        compute_tiles(t_begin, t_end, pass_streams, columns, low.out_spatial(),
                      low.patch_size(), staging, staging + nmult, out);
    });
}

Tensor VmacConv2d::backward(const Tensor& /*grad_output*/) {
    throw std::logic_error(
        "VmacConv2d[" + backend_->name() +
        "] is evaluation-only (paper Sec. 4: per-VMAC modeling is applied at evaluation "
        "time); use QuantConv2d + ErrorInjector for training");
}

}  // namespace ams::vmac
