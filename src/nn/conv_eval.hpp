// Shared eval-mode convolution executor: im2col + packed GEMM over
// per-chunk EvalContext scratch. One implementation serves the
// folded-conv path (models/fold.cpp) and the compiled-plan executor
// (src/compile); its arithmetic matches the allocating eval-mode
// Conv2d::forward bit for bit.
#pragma once

#include <cstddef>

#include "runtime/eval_context.hpp"
#include "tensor/im2col.hpp"

namespace ams::nn {

/// Per-image epilogue hook for conv_eval_run: invoked inside the batch
/// parallel region, right after the image's GEMM, with the image's output
/// base pointer. Plain function pointer + context (no std::function): the
/// eval hot path must not touch the heap.
using ConvEpilogueFn = void (*)(void* epilogue_ctx, float* out_image, std::size_t image_index);

/// Runs one eval-mode convolution: for each image, im2col into the
/// chunk's column scratch, then out (Cout x OHW) = weight (Cout x patch)
/// * columns (patch x OHW) via the packed GEMM, then the optional
/// epilogue. Per-chunk scratch, base = 4 * chunk: the GemmPackBuffers
/// slots (kPackB = 1, kTranspose = 2) plus the column buffer at base + 3;
/// kPackA stays thread-local inside the kernels. Chunking depends only
/// on (batch, suggest_grain), and the GEMM is row-partition invariant,
/// so results are bit-identical at any thread count. `out` must hold
/// batch * out_channels * out_spatial floats and be disjoint from `input`.
void conv_eval_run(const float* input, std::size_t batch, const ConvLowering& low,
                   const float* weight, std::size_t out_channels, float* out,
                   runtime::EvalContext& ctx, const void* scratch_owner,
                   ConvEpilogueFn epilogue = nullptr, void* epilogue_ctx = nullptr);

}  // namespace ams::nn
