// Validation-set evaluation with the paper's reporting protocol: each
// reported accuracy is the sample mean of several passes of the validation
// set through the network, with the sample standard deviation as the error
// bar (the passes differ because AMS error injection is stochastic).
#pragma once

#include <cstddef>
#include <vector>

#include "models/resnet.hpp"
#include "runtime/eval_context.hpp"

namespace ams::train {

// ----- batch primitives -----
//
// Every consumer that pushes a batch of images through a model — the
// offline evaluation protocol below and the serve/ dynamic batcher —
// assembles it with these primitives and runs it through a compiled
// compile::ExecutionPlan, so served results are bit-identical to offline
// evaluation by construction (for deterministic configurations;
// tests/serve_test.cpp enforces it).

/// Copies images [start, start + count) of an NCHW set into a borrowed
/// batch tensor in `ctx`'s activation arena (released by the caller's
/// next rewind). Allocation-free in steady state.
[[nodiscard]] Tensor slice_batch(const Tensor& images, std::size_t start, std::size_t count,
                                 runtime::EvalContext& ctx);

/// Gathers `count` single images, given by per-image CHW pointers, into
/// one borrowed [count, C, H, W] batch tensor in `ctx`'s activation
/// arena — the serve batcher's gather step (requests arrive in separate
/// buffers, not as a contiguous range). Throws std::invalid_argument on
/// count == 0 or a null pointer.
[[nodiscard]] Tensor assemble_batch(const float* const* images, std::size_t count,
                                    const Shape& chw, runtime::EvalContext& ctx);

/// The reference batch -> logits path: the model's allocating eval-mode
/// forward, with the logits copied into a borrowed tensor in `ctx`'s
/// activation arena (released by the caller's next rewind). Compiled
/// plans are tested bit-for-bit against it. Throws std::logic_error if
/// the model is in training mode.
[[nodiscard]] Tensor forward_batch(nn::Module& model, const Tensor& batch,
                                   runtime::EvalContext& ctx);

/// Aggregated accuracy over repeated validation passes.
struct EvalResult {
    double mean = 0.0;          ///< sample mean of per-pass top-1 accuracy
    double stddev = 0.0;        ///< sample standard deviation (n-1)
    std::vector<double> passes; ///< per-pass top-1 accuracies
};

/// Runs `passes` full passes of (images, labels) through `model` in
/// evaluation mode and reports top-1 statistics. Restores the model's
/// previous training flag afterwards. Throws std::invalid_argument on
/// empty input or passes == 0.
///
/// Inference runs through a compile::ExecutionPlan built once per call at
/// the steady-state batch shape (honoring AMSNET_GEMM_INT): activations
/// live in `ctx`'s arena and are rewound after each batch, so steady-state
/// batches allocate nothing. Pass a context to reuse its warm arenas
/// across calls (e.g. one context per sweep worker); with ctx == nullptr
/// a context local to the call is used. Results are bit-identical either
/// way, and identical to the allocating eval-mode forward.
[[nodiscard]] EvalResult evaluate_top1(models::ResNet& model, const Tensor& images,
                                       const std::vector<std::size_t>& labels,
                                       std::size_t batch_size = 64, std::size_t passes = 1,
                                       runtime::EvalContext* ctx = nullptr);

/// Single-pass top-k accuracy in evaluation mode.
[[nodiscard]] double evaluate_topk(models::ResNet& model, const Tensor& images,
                                   const std::vector<std::size_t>& labels, std::size_t k,
                                   std::size_t batch_size = 64,
                                   runtime::EvalContext* ctx = nullptr);

/// Fig. 6 instrumentation: runs one evaluation pass with per-conv-layer
/// activation recording enabled and returns the mean post-injection
/// activation of every conv layer (stem first), evaluated across the
/// whole set.
[[nodiscard]] std::vector<double> record_activation_means(
    models::ResNet& model, const Tensor& images, std::size_t batch_size = 64,
    runtime::EvalContext* ctx = nullptr);

}  // namespace ams::train
