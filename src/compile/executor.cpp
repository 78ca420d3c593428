// ExecutionPlan::run — the flat, dispatch-free interpreter over the
// compiled steps. Every kernel call here computes what the allocating
// eval-mode forward of the corresponding layer computes (conv_eval_run,
// gemm_bt, simd::*, normalize_eval, forward_planned, pool_eval, reduce),
// over the same extents in the same order, which is what makes
// default-options plans bit-identical to root.forward(input).
#include "compile/plan.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/conv_eval.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/simd.hpp"
#include "runtime/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"

namespace ams::compile {

namespace {

namespace metrics = runtime::metrics;

/// The compiled shape with its batch dimension replaced by the run-time
/// batch (offsets stay those of the compiled batch; extents scale).
/// Built in an inline array: run() must stay allocation-free.
Shape at_batch(const Shape& s, std::size_t batch) {
    std::array<std::size_t, Shape::kMaxRank> dims{};
    std::copy(s.dims().begin(), s.dims().end(), dims.begin());
    dims[0] = batch;
    return Shape(std::span<const std::size_t>(dims.data(), s.rank()));
}

void add_bias_rows(float* data, const float* bias, std::size_t batch, std::size_t channels,
                   std::size_t spatial) {
    for (std::size_t b = 0; b < batch; ++b) {
        float* image = data + b * channels * spatial;
        for (std::size_t c = 0; c < channels; ++c) {
            float* row = image + c * spatial;
            const float bv = bias[c];
            for (std::size_t i = 0; i < spatial; ++i) row[i] += bv;
        }
    }
}

/// Whole-tensor application of one tail op — the same primitive call the
/// corresponding layer's forward makes.
void apply_ew_whole(const EwOp& op, float* data, const Shape& shape) {
    const std::size_t n = shape.numel();
    switch (op.kind) {
        case EwOp::Kind::kInject:
            // A disabled injector is skipped entirely: in place there is
            // nothing to copy, and no noise epoch is consumed — exactly
            // like ErrorInjector::forward, which copies without consuming
            // an epoch.
            if (op.injector->enabled()) {
                // Pass the leading dims so the chip-field pre-pass keys
                // offsets per output channel, identically to the
                // shape-aware inject() of ErrorInjector::forward.
                op.injector->inject_inplace(data, n, shape.rank() > 0 ? shape.dim(0) : 1,
                                            shape.rank() > 1 ? shape.dim(1) : 1);
            }
            break;
        case EwOp::Kind::kRecord:
            if (op.unit->recording()) {
                op.unit->stats().accumulate(Tensor::borrowed(shape, data));
            }
            break;
        case EwOp::Kind::kBatchNorm: {
            const std::size_t spatial = shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1;
            op.bn->normalize_eval(data, data, shape.dim(0), spatial);
            break;
        }
        case EwOp::Kind::kBias: {
            const std::size_t spatial = shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1;
            add_bias_rows(data, op.bias, shape.dim(0), shape.dim(1), spatial);
            break;
        }
        case EwOp::Kind::kRelu:
            simd::relu(data, data, n);
            break;
        case EwOp::Kind::kClippedRelu:
            simd::clipped_relu(data, data, n, op.ceiling);
            break;
        case EwOp::Kind::kQuantAct:
            if (op.bits >= 32) {
                simd::clamp(data, data, n, 0.0f, 1.0f);
            } else {
                simd::quantize_unit(data, data, n, static_cast<float>(op.levels));
            }
            break;
    }
}

/// Per-image GEMM epilogue over the in-loop-eligible prefix of a conv
/// step's tail. On the fp32 path only kBias and kBatchNorm do work here;
/// the integer path additionally runs activations in-loop (all are
/// per-element, so per-image and whole-tensor application coincide
/// bit-for-bit). Eligible no-ops (disabled inject, inactive record) are
/// skipped.
struct ConvTailEpilogue {
    const Step* step;
    std::size_t n_inloop;
    std::size_t out_spatial;

    static void apply(void* self, float* out_image, std::size_t /*image_index*/) {
        const auto* e = static_cast<const ConvTailEpilogue*>(self);
        const std::size_t n_img = e->step->out_channels * e->out_spatial;
        for (std::size_t i = 0; i < e->n_inloop; ++i) {
            const EwOp& op = e->step->tail[i];
            switch (op.kind) {
                case EwOp::Kind::kBias: {
                    for (std::size_t oc = 0; oc < e->step->out_channels; ++oc) {
                        float* row = out_image + oc * e->out_spatial;
                        const float bv = op.bias[oc];
                        for (std::size_t j = 0; j < e->out_spatial; ++j) row[j] += bv;
                    }
                    break;
                }
                case EwOp::Kind::kBatchNorm:
                    op.bn->normalize_eval(out_image, out_image, 1, e->out_spatial);
                    break;
                case EwOp::Kind::kRelu:
                    simd::relu(out_image, out_image, n_img);
                    break;
                case EwOp::Kind::kClippedRelu:
                    simd::clipped_relu(out_image, out_image, n_img, op.ceiling);
                    break;
                case EwOp::Kind::kQuantAct:
                    if (op.bits >= 32) {
                        simd::clamp(out_image, out_image, n_img, 0.0f, 1.0f);
                    } else {
                        simd::quantize_unit(out_image, out_image, n_img,
                                            static_cast<float>(op.levels));
                    }
                    break;
                default:
                    break;  // eligible no-ops
            }
        }
    }
};

/// Splits a conv tail at run time into the in-loop prefix (ops that are
/// bit-identical per image: bias, batch norm, and currently-inactive
/// inject/record) and the whole-tensor suffix (everything from the first
/// op whose whole-tensor order matters: active injection consumes its
/// noise epoch over the full tensor, active recording accumulates a
/// serial double sum, activations follow). Re-evaluated every run so
/// toggling an injector or recording after compile stays correct.
struct TailSplit {
    std::size_t n_inloop = 0;
    bool inloop_work = false;
};

TailSplit split_tail(const Step& step) {
    TailSplit split;
    for (const EwOp& op : step.tail) {
        bool eligible = false;
        bool work = false;
        switch (op.kind) {
            case EwOp::Kind::kBias:
            case EwOp::Kind::kBatchNorm:
                eligible = true;
                work = true;
                break;
            case EwOp::Kind::kInject:
                eligible = !op.injector->enabled();
                break;
            case EwOp::Kind::kRecord:
                eligible = !op.unit->recording();
                break;
            default:
                eligible = false;
        }
        if (!eligible) break;
        ++split.n_inloop;
        split.inloop_work |= work;
    }
    return split;
}

/// Tail split for integer conv steps. The integer path is already a
/// toleranced realization (no whole-tensor bit-identity contract to
/// preserve against the allocating forward), so the per-element activations —
/// identical per-image vs whole-tensor — also run in-loop, fused right
/// after requantization.
TailSplit split_tail_int(const Step& step) {
    TailSplit split;
    for (const EwOp& op : step.tail) {
        bool eligible = false;
        bool work = false;
        switch (op.kind) {
            case EwOp::Kind::kBias:
            case EwOp::Kind::kBatchNorm:
            case EwOp::Kind::kRelu:
            case EwOp::Kind::kClippedRelu:
            case EwOp::Kind::kQuantAct:
                eligible = true;
                work = true;
                break;
            case EwOp::Kind::kInject:
                eligible = !op.injector->enabled();
                break;
            case EwOp::Kind::kRecord:
                eligible = !op.unit->recording();
                break;
        }
        if (!eligible) break;
        ++split.n_inloop;
        split.inloop_work |= work;
    }
    return split;
}

/// Scratch-slot namespace for the integer conv path: far above the fp32
/// conv's base = 4 * chunk ids, so the two numeric realizations of one
/// nn::Conv2d never collide in the (owner, slot) scratch registry.
/// Slot base - 1 holds the step's whole-input code buffer; per chunk,
/// base + 1 (kPackB) the panel, base + 2 the i32 accumulators, and
/// base + 3 the code columns — mirroring the fp32 layout.
constexpr int kIntSlotBase = 1 << 20;

/// Integer realization of one kConv step: encode the input value to uint8
/// grid codes once, then per image run code-typed im2col, the packed int8
/// GEMM into an i32 accumulator, and a fused epilogue that requantizes
/// (one multiply per output) and applies the in-loop tail prefix.
void run_conv_int(const Step& step, const float* in, float* out, std::size_t batch,
                  runtime::EvalContext& ctx, const TailSplit& split) {
    runtime::trace::Span span("Conv2d.forward_int");
    const ConvLowering& low = step.lowering;
    const std::size_t patch = low.patch_size();
    const std::size_t out_spatial = low.out_spatial();
    const std::size_t out_image = step.out_channels * out_spatial;
    const std::size_t image = low.image_floats();

    // Encode the whole input value once per run. Element-wise and
    // chunk-independent, so the batch parallelism is free of ordering
    // effects.
    const std::size_t n_in = batch * image;
    auto* codes = reinterpret_cast<std::uint8_t*>(
        ctx.reserve_scratch(step.scratch_owner, kIntSlotBase - 1, (n_in + 3) / 4));
    runtime::parallel_for(
        0, n_in, runtime::suggest_grain(n_in, 4096), [&](std::size_t i0, std::size_t i1) {
            quant::encode_unit_u8(in + i0, i1 - i0, step.act_levels, codes + i0);
        });

    // Pointwise (1x1, stride 1, no padding) convolutions need no im2col
    // at all: the code image's (C, H*W) layout IS the (patch x
    // out_spatial) column matrix, so the GEMM reads the encoded input
    // directly. This covers most convs of a bottleneck-style network.
    const ConvGeometry& geo = low.geometry();
    const bool pointwise = geo.kernel_h == 1 && geo.kernel_w == 1 && geo.stride_h == 1 &&
                           geo.stride_w == 1 && geo.pad_h == 0 && geo.pad_w == 0;

    // Serial reservations, then the same batch-chunk structure as
    // conv_eval_run with the integer slot namespace.
    const std::size_t grain = runtime::suggest_grain(batch, 1);
    const std::size_t n_chunks = (batch + grain - 1) / grain;
    const std::size_t col_floats = (patch * out_spatial + 3) / 4;
    const std::size_t panel_floats = packed_b_i8_floats(patch, out_spatial);
    for (std::size_t c = 0; c < n_chunks; ++c) {
        const int base = kIntSlotBase + static_cast<int>(4 * c);
        if (!pointwise) (void)ctx.reserve_scratch(step.scratch_owner, base + 3, col_floats);
        (void)ctx.reserve_scratch(step.scratch_owner, base + GemmPackBuffers::kPackB,
                                  panel_floats);
        (void)ctx.reserve_scratch(step.scratch_owner, base + 2, out_image);
    }
    ConvTailEpilogue epilogue{&step, split.n_inloop, out_spatial};
    runtime::parallel_for(0, batch, grain, [&](std::size_t b_begin, std::size_t b_end) {
        const int base = kIntSlotBase + static_cast<int>(4 * (b_begin / grain));
        float* col_f = pointwise ? nullptr
                                 : ctx.reserve_scratch(step.scratch_owner, base + 3, col_floats);
        auto* acc = reinterpret_cast<std::int32_t*>(
            ctx.reserve_scratch(step.scratch_owner, base + 2, out_image));
        EvalContextPackBuffers pack(ctx, step.scratch_owner, base);
        for (std::size_t b = b_begin; b < b_end; ++b) {
            float* dst = out + b * out_image;
            const std::uint8_t* cols = codes + b * image;
            if (!pointwise) {
                im2col_u8(cols, geo, reinterpret_cast<std::uint8_t*>(col_f));
                cols = reinterpret_cast<const std::uint8_t*>(col_f);
            }
            gemm_s8u8(step.weight_i8, cols, acc, step.out_channels, patch, out_spatial, &pack);
            // Fused requantization: the exact int32 dot of codes returns
            // to the value domain with one multiply per output.
            for (std::size_t i = 0; i < out_image; ++i) {
                dst[i] = static_cast<float>(acc[i]) * step.dequant;
            }
            if (split.n_inloop > 0) ConvTailEpilogue::apply(&epilogue, dst, b);
        }
    });
    metrics::add(metrics::Counter::kRequantOps,
                 static_cast<std::uint64_t>(batch) * out_image);
}

}  // namespace

Tensor ExecutionPlan::run(const Tensor& input, runtime::EvalContext& ctx) {
    const Shape& compiled = p_.input_shape;
    if (input.rank() != compiled.rank()) {
        throw std::invalid_argument("ExecutionPlan::run: input rank " +
                                    std::to_string(input.rank()) + " vs compiled " +
                                    compiled.str());
    }
    for (std::size_t d = 1; d < compiled.rank(); ++d) {
        if (input.dim(d) != compiled.dim(d)) {
            throw std::invalid_argument("ExecutionPlan::run: input " + input.shape().str() +
                                        " does not match compiled " + compiled.str());
        }
    }
    const std::size_t batch = input.dim(0);
    if (batch == 0 || batch > compiled.dim(0)) {
        throw std::invalid_argument("ExecutionPlan::run: batch " + std::to_string(batch) +
                                    " exceeds compiled maximum " +
                                    std::to_string(compiled.dim(0)));
    }

    runtime::trace::Span span("plan.run");
    metrics::add(metrics::Counter::kPlanRuns);

    // The plan's entire intermediate footprint: one block, one allocation,
    // inside the caller's checkpoint/rewind discipline.
    float* block = ctx.alloc_activation(p_.arena_floats);
    // The input tensor may be a const borrow; every step only reads it.
    float* external = const_cast<float*>(input.data());

    auto value_ptr = [&](int id) -> float* {
        const Value& v = p_.values[id];
        return v.external ? external : block + v.offset;
    };
    auto value_shape = [&](int id) { return at_batch(p_.values[id].shape, batch); };

    for (const Step& step : p_.steps) {
        switch (step.kind) {
            case StepKind::kQuantInput: {
                const float* src = value_ptr(step.in);
                float* dst = value_ptr(step.out);
                const std::size_t n = value_shape(step.out).numel();
                simd::scale_clamp(src, dst, n, step.inv_scale, -1.0f, 1.0f);
                if (step.bits < 32) {
                    simd::quantize_signed(dst, dst, n, static_cast<float>(step.levels));
                }
                break;
            }
            case StepKind::kConv: {
                if (step.numeric != NumericMode::kFp32) {
                    const TailSplit split = split_tail_int(step);
                    run_conv_int(step, value_ptr(step.in), value_ptr(step.out), batch, ctx,
                                 split);
                    const Shape out_shape = value_shape(step.out);
                    for (std::size_t i = split.n_inloop; i < step.tail.size(); ++i) {
                        apply_ew_whole(step.tail[i], value_ptr(step.out), out_shape);
                    }
                    break;
                }
                const TailSplit split = split_tail(step);
                ConvTailEpilogue epilogue{&step, split.n_inloop, step.lowering.out_spatial()};
                nn::conv_eval_run(value_ptr(step.in), batch, step.lowering, step.weight,
                                  step.out_channels, value_ptr(step.out), ctx,
                                  step.scratch_owner,
                                  split.inloop_work ? &ConvTailEpilogue::apply : nullptr,
                                  split.inloop_work ? &epilogue : nullptr);
                const Shape out_shape = value_shape(step.out);
                for (std::size_t i = split.n_inloop; i < step.tail.size(); ++i) {
                    apply_ew_whole(step.tail[i], value_ptr(step.out), out_shape);
                }
                break;
            }
            case StepKind::kVmacConv: {
                step.vmac->forward_planned(value_ptr(step.in), value_shape(step.in),
                                           value_ptr(step.out), ctx);
                const Shape out_shape = value_shape(step.out);
                for (const EwOp& op : step.tail) {
                    apply_ew_whole(op, value_ptr(step.out), out_shape);
                }
                break;
            }
            case StepKind::kLinear: {
                nn::Linear& lin = *step.linear;
                const std::size_t in_f = lin.in_features();
                const std::size_t out_f = lin.out_features();
                (void)ctx.reserve_scratch(&lin, GemmPackBuffers::kPackB,
                                          packed_b_floats(in_f, out_f));
                EvalContextPackBuffers pack(ctx, &lin, /*slot_base=*/0);
                float* dst = value_ptr(step.out);
                gemm_bt(value_ptr(step.in), step.weight, dst, batch, in_f, out_f, &pack);
                if (step.bias != nullptr) {
                    for (std::size_t b = 0; b < batch; ++b) {
                        float* row = dst + b * out_f;
                        for (std::size_t j = 0; j < out_f; ++j) row[j] += step.bias[j];
                    }
                }
                const Shape out_shape = value_shape(step.out);
                for (const EwOp& op : step.tail) {
                    apply_ew_whole(op, dst, out_shape);
                }
                break;
            }
            case StepKind::kElementwise: {
                const float* src = value_ptr(step.in);
                float* dst = value_ptr(step.out);
                const Shape shape = value_shape(step.out);
                const std::size_t n = shape.numel();
                switch (step.ew.kind) {
                    case EwOp::Kind::kRelu:
                        simd::relu(src, dst, n);
                        break;
                    case EwOp::Kind::kClippedRelu:
                        simd::clipped_relu(src, dst, n, step.ew.ceiling);
                        break;
                    case EwOp::Kind::kQuantAct:
                        if (step.ew.bits >= 32) {
                            simd::clamp(src, dst, n, 0.0f, 1.0f);
                        } else {
                            simd::quantize_unit(src, dst, n,
                                                static_cast<float>(step.ew.levels));
                        }
                        break;
                    case EwOp::Kind::kBatchNorm: {
                        const std::size_t spatial =
                            shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1;
                        step.ew.bn->normalize_eval(src, dst, shape.dim(0), spatial);
                        break;
                    }
                    default:
                        // kInject / kRecord / kBias are in-place-or-copy ops.
                        if (dst != src) {
                            std::memcpy(dst, src, n * sizeof(float));
                        }
                        apply_ew_whole(step.ew, dst, shape);
                        break;
                }
                break;
            }
            case StepKind::kMaxPool: {
                const Tensor in = Tensor::borrowed(value_shape(step.in),
                                                   value_ptr(step.in));
                step.maxpool->pool_eval(in, value_ptr(step.out));
                break;
            }
            case StepKind::kGlobalAvgPool: {
                const Tensor in = Tensor::borrowed(value_shape(step.in),
                                                   value_ptr(step.in));
                nn::GlobalAvgPool::reduce(in, value_ptr(step.out));
                break;
            }
            case StepKind::kResidualAdd: {
                // Tensor::operator+= is a serial loop; keep the exact
                // element order of the residual blocks' `m += shortcut`.
                float* dst = value_ptr(step.out);
                const float* src = value_ptr(step.in2);
                const std::size_t n = value_shape(step.out).numel();
                for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
                break;
            }
        }
    }

    return Tensor::borrowed(value_shape(p_.output_value), value_ptr(p_.output_value));
}

}  // namespace ams::compile
