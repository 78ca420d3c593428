#include "train/evaluate.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "compile/plan.hpp"
#include "nn/loss.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"

namespace ams::train {

namespace {

/// Restores the model's training flag on scope exit.
class TrainingModeGuard {
public:
    explicit TrainingModeGuard(models::ResNet& model)
        : model_(model), was_training_(model.training()) {}
    ~TrainingModeGuard() { model_.set_training(was_training_); }
    TrainingModeGuard(const TrainingModeGuard&) = delete;
    TrainingModeGuard& operator=(const TrainingModeGuard&) = delete;

private:
    models::ResNet& model_;
    bool was_training_;
};

/// Compiles `model` for the steady-state batch shape (the final partial
/// batch runs through the same plan at a smaller batch). A fresh plan per
/// evaluate_* call, never cached across calls: compile snapshots the
/// DoReFa-quantized weights, and the trainer evaluates between epochs
/// while the weights change.
compile::ExecutionPlan compile_for(models::ResNet& model, const Tensor& images,
                                   std::size_t batch_size) {
    const std::size_t first = std::min(batch_size, images.dim(0));
    compile::CompileOptions options;
    options.gemm_int = env_gemm_int_mode();  // AMSNET_GEMM_INT (off by default)
    return compile::compile(model, Shape{first, images.dim(1), images.dim(2), images.dim(3)},
                            options);
}

// The batch loop stays sequential on purpose: the model is a stateful
// graph (per-layer noise-stream epochs, activation recording), so batches
// must hit it in a fixed order for reproducibility. All the parallelism
// lives below — conv/gemm kernels, per-tile noise streams and the top-k
// reduction — which is what makes one pass scale while staying
// bit-identical at any AMSNET_THREADS. `batch_labels` is caller-owned
// scratch with capacity >= batch_size, so a steady-state pass allocates
// nothing.
double one_pass_topk(compile::ExecutionPlan& plan, const Tensor& images,
                     const std::vector<std::size_t>& labels, std::size_t k,
                     std::size_t batch_size, runtime::EvalContext& ctx,
                     std::vector<std::size_t>& batch_labels) {
    runtime::trace::Span pass_span("evaluate.pass");
    runtime::metrics::add(runtime::metrics::Counter::kEvalPasses);
    const std::size_t n = images.dim(0);
    double hits = 0.0;
    for (std::size_t start = 0; start < n; start += batch_size) {
        runtime::trace::Span batch_span("evaluate.batch");
        runtime::metrics::add(runtime::metrics::Counter::kEvalBatches);
        const std::size_t count = std::min(batch_size, n - start);
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        const Tensor logits = plan.run(slice_batch(images, start, count, ctx), ctx);
        batch_labels.assign(labels.begin() + start, labels.begin() + start + count);
        hits += nn::topk_accuracy(logits, batch_labels, k) * static_cast<double>(count);
        ctx.rewind(cp);  // logits and the batch die here
    }
    return hits / static_cast<double>(n);
}

}  // namespace

Tensor slice_batch(const Tensor& images, std::size_t start, std::size_t count,
                   runtime::EvalContext& ctx) {
    const std::size_t image = images.dim(1) * images.dim(2) * images.dim(3);
    const Shape shape{count, images.dim(1), images.dim(2), images.dim(3)};
    Tensor batch = Tensor::borrowed(shape, ctx.alloc_activation(shape.numel()));
    runtime::parallel_for(0, count, runtime::suggest_grain(count, 16),
                          [&](std::size_t i_begin, std::size_t i_end) {
                              std::memcpy(batch.data() + i_begin * image,
                                          images.data() + (start + i_begin) * image,
                                          (i_end - i_begin) * image * sizeof(float));
                          });
    return batch;
}

Tensor assemble_batch(const float* const* images, std::size_t count, const Shape& chw,
                      runtime::EvalContext& ctx) {
    if (count == 0) throw std::invalid_argument("assemble_batch: count must be > 0");
    if (chw.rank() != 3) throw std::invalid_argument("assemble_batch: image shape must be CHW");
    const std::size_t image = chw.numel();
    const Shape shape{count, chw.dim(0), chw.dim(1), chw.dim(2)};
    Tensor batch = Tensor::borrowed(shape, ctx.alloc_activation(shape.numel()));
    for (std::size_t i = 0; i < count; ++i) {
        if (images[i] == nullptr) {
            throw std::invalid_argument("assemble_batch: null image pointer");
        }
        std::memcpy(batch.data() + i * image, images[i], image * sizeof(float));
    }
    return batch;
}

Tensor forward_batch(nn::Module& model, const Tensor& batch, runtime::EvalContext& ctx) {
    if (model.training()) {
        throw std::logic_error("forward_batch: model must be in eval mode");
    }
    runtime::trace::Span span("forward.batch");
    const Tensor logits = model.forward(batch);
    Tensor out = Tensor::borrowed(logits.shape(), ctx.alloc_activation(logits.size()));
    std::memcpy(out.data(), logits.data(), logits.size() * sizeof(float));
    return out;
}

EvalResult evaluate_top1(models::ResNet& model, const Tensor& images,
                         const std::vector<std::size_t>& labels, std::size_t batch_size,
                         std::size_t passes, runtime::EvalContext* ctx) {
    if (images.rank() != 4 || images.dim(0) == 0 || images.dim(0) != labels.size()) {
        throw std::invalid_argument("evaluate_top1: bad images/labels");
    }
    if (passes == 0 || batch_size == 0) {
        throw std::invalid_argument("evaluate_top1: passes and batch_size must be > 0");
    }
    TrainingModeGuard guard(model);
    model.set_training(false);
    runtime::EvalContext local;
    runtime::EvalContext& ec = ctx ? *ctx : local;
    compile::ExecutionPlan plan = compile_for(model, images, batch_size);
    std::vector<std::size_t> batch_labels;
    batch_labels.reserve(batch_size);

    EvalResult result;
    result.passes.reserve(passes);
    for (std::size_t p = 0; p < passes; ++p) {
        result.passes.push_back(
            one_pass_topk(plan, images, labels, 1, batch_size, ec, batch_labels));
    }
    double sum = 0.0;
    for (double a : result.passes) sum += a;
    result.mean = sum / static_cast<double>(passes);
    if (passes > 1) {
        double sq = 0.0;
        for (double a : result.passes) sq += (a - result.mean) * (a - result.mean);
        result.stddev = std::sqrt(sq / static_cast<double>(passes - 1));
    }
    return result;
}

double evaluate_topk(models::ResNet& model, const Tensor& images,
                     const std::vector<std::size_t>& labels, std::size_t k,
                     std::size_t batch_size, runtime::EvalContext* ctx) {
    if (images.dim(0) != labels.size() || images.dim(0) == 0) {
        throw std::invalid_argument("evaluate_topk: bad images/labels");
    }
    TrainingModeGuard guard(model);
    model.set_training(false);
    runtime::EvalContext local;
    runtime::EvalContext& ec = ctx ? *ctx : local;
    compile::ExecutionPlan plan = compile_for(model, images, batch_size);
    std::vector<std::size_t> batch_labels;
    batch_labels.reserve(batch_size);
    return one_pass_topk(plan, images, labels, k, batch_size, ec, batch_labels);
}

std::vector<double> record_activation_means(models::ResNet& model, const Tensor& images,
                                            std::size_t batch_size,
                                            runtime::EvalContext* ctx) {
    if (images.rank() != 4 || images.dim(0) == 0) {
        throw std::invalid_argument("record_activation_means: bad images");
    }
    TrainingModeGuard guard(model);
    model.set_training(false);
    runtime::EvalContext local;
    runtime::EvalContext& ec = ctx ? *ctx : local;
    compile::ExecutionPlan plan = compile_for(model, images, batch_size);
    model.reset_stats();
    model.set_recording(true);
    const std::size_t n = images.dim(0);
    for (std::size_t start = 0; start < n; start += batch_size) {
        const std::size_t count = std::min(batch_size, n - start);
        const runtime::TensorArena::Checkpoint cp = ec.checkpoint();
        (void)plan.run(slice_batch(images, start, count, ec), ec);
        ec.rewind(cp);
    }
    model.set_recording(false);
    return model.activation_means();
}

}  // namespace ams::train
