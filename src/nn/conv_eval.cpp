#include "nn/conv_eval.hpp"

#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"

namespace ams::nn {

void conv_eval_run(const float* input, std::size_t batch, const ConvLowering& low,
                   const float* weight, std::size_t out_channels, float* out,
                   runtime::EvalContext& ctx, const void* scratch_owner, ConvEpilogueFn epilogue,
                   void* epilogue_ctx) {
    runtime::trace::Span span("Conv2d.forward");
    const std::size_t out_spatial = low.out_spatial();
    const std::size_t patch = low.patch_size();
    const std::size_t out_image = out_channels * out_spatial;

    // Reservations run serially before the region (a new shape, e.g. the
    // last partial batch, grows them once); inside the region
    // reserve_scratch is a pure lookup, safe from concurrent chunks.
    const std::size_t grain = runtime::suggest_grain(batch, 1);
    const std::size_t n_chunks = (batch + grain - 1) / grain;
    for (std::size_t c = 0; c < n_chunks; ++c) {
        const int base = static_cast<int>(4 * c);
        (void)ctx.reserve_scratch(scratch_owner, base + 3, patch * out_spatial);
        (void)ctx.reserve_scratch(scratch_owner, base + GemmPackBuffers::kPackB,
                                  packed_b_floats(patch, out_spatial));
    }
    runtime::parallel_for(0, batch, grain, [&](std::size_t b_begin, std::size_t b_end) {
        const int base = static_cast<int>(4 * (b_begin / grain));
        float* columns = ctx.reserve_scratch(scratch_owner, base + 3, patch * out_spatial);
        EvalContextPackBuffers pack(ctx, scratch_owner, base);
        for (std::size_t b = b_begin; b < b_end; ++b) {
            low.lower_image(input, b, columns);
            gemm(weight, columns, out + b * out_image, out_channels, patch, out_spatial, &pack);
            if (epilogue) epilogue(epilogue_ctx, out + b * out_image, b);
        }
    });
}

}  // namespace ams::nn
