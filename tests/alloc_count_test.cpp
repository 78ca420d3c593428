// The zero-allocation acceptance test: after compiling and one warm-up
// pass, a steady-state eval forward of the full quantized+AMS model must
// perform ZERO heap allocations — through a bare ExecutionPlan, through a
// further evaluate_top1 pass, and through a served batch. Global operator
// new is overridden in this binary to count every allocation, so any
// regression — a stray Tensor copy, a std::function capture, a vector
// resize on the hot path — fails this test by name.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "compile/plan.hpp"
#include "models/resnet.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/gemm.hpp"
#include "train/evaluate.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (align < sizeof(void*)) align = sizeof(void*);
    if (posix_memalign(&p, align, size ? size : 1) != 0) return nullptr;
    return p;
}
}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ams {
namespace {

models::LayerCommon quant_ams_common() {
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;  // injectors on: the full eval pipeline
    common.vmac.enob = 5.0;
    common.vmac.nmult = 8;
    return common;
}

TEST(AllocCountTest, SteadyStateEvalForwardIsAllocationFree) {
    // Serial execution: the parallel dispatch path intentionally shares
    // work through heap-backed queues, but the single-thread fast path —
    // the one inside every sweep worker — must be allocation-free.
    runtime::ThreadPool::set_global_threads(1);

    models::ResNet model(models::tiny_resnet_config(quant_ams_common()));
    model.set_training(false);
    Rng rng(3);
    Tensor x(Shape{4, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);

    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(model, x.shape());
    // Warm-up: grows the arenas to their steady footprint and populates
    // the scratch registry.
    for (int i = 0; i < 2; ++i) {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        (void)plan.run(x, ctx);
        ctx.rewind(cp);
    }

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        Tensor out = plan.run(x, ctx);
        ctx.rewind(cp);
    }
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(allocs, 0u) << "steady-state plan run must not touch the heap";
}

TEST(AllocCountTest, SteadyStateEvaluatePassIsAllocationFree) {
    // evaluate_top1 compiles once per call; every pass after the first
    // must add no heap traffic. Two calls on a warm context that differ
    // only in their pass count must therefore allocate equally often.
    runtime::ThreadPool::set_global_threads(1);
    models::ResNet model(models::tiny_resnet_config(quant_ams_common()));
    Rng rng(5);
    Tensor images(Shape{10, 3, 8, 8});  // batches of 4, 4 and a partial 2
    images.fill_uniform(rng, -1.0f, 1.0f);
    std::vector<std::size_t> labels(images.dim(0));
    for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 4;

    runtime::EvalContext ctx;
    auto count_allocs = [&](std::size_t passes) {
        const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
        (void)train::evaluate_top1(model, images, labels, 4, passes, &ctx);
        return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    (void)count_allocs(2);  // warm-up: grows the context's arenas
    const std::size_t two = count_allocs(2);
    const std::size_t three = count_allocs(3);
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(three, two) << "a steady-state evaluate pass must not touch the heap";
}

TEST(AllocCountTest, SteadyStateServedBatchModelPathIsAllocationFree) {
    // A served request costs a fixed number of allocations by contract
    // (its image copy, its promise, its result logits, the batch vector).
    // The model path adds none: serving the full quantized+AMS ResNet
    // must allocate exactly as often per request as serving a one-step
    // plan. Requests go one at a time so both servers see the same queue
    // history.
    runtime::ThreadPool::set_global_threads(1);
    models::ResNet primary(models::tiny_resnet_config(quant_ams_common()));
    Rng rng(9);
    Tensor image(Shape{3, 8, 8});
    image.fill_uniform(rng, -1.0f, 1.0f);
    serve::ServerOptions sopts;
    sopts.max_batch = 4;
    sopts.max_delay_us = 0;

    auto allocs_per_round_trips = [&](serve::InferenceServer& server) {
        for (int i = 0; i < 4; ++i) (void)server.submit(image).get();  // warm-up
        const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
        for (int i = 0; i < 8; ++i) (void)server.submit(image).get();
        return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    std::size_t resnet = 0;
    {
        serve::InferenceServer server(primary, image.shape(), sopts);
        resnet = allocs_per_round_trips(server);
    }
    std::size_t pool = 0;
    {
        serve::InferenceServer server(
            [](std::size_t) -> std::unique_ptr<nn::Module> {
                auto seq = std::make_unique<nn::Sequential>();
                seq->add(std::make_unique<nn::GlobalAvgPool>());
                return seq;
            },
            image.shape(), sopts);
        pool = allocs_per_round_trips(server);
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(resnet, pool) << "the served model path must not touch the heap";
}

TEST(AllocCountTest, SteadyStateGemmAtIsAllocationFree) {
    // gemm_at used to build its transpose scratch in a per-call
    // std::vector; it now draws from reusable pack buffers (thread-local
    // here, EvalContext scratch on the planned path), so repeated calls —
    // e.g. the backward pass, once per image — must not touch the heap.
    runtime::ThreadPool::set_global_threads(1);
    const std::size_t m = 33, k = 17, n = 65;
    std::vector<float> a(k * m), b(k * n), c(m * n);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i % 7) - 3.0f;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 5) - 2.0f;

    // Warm-up grows the thread-local buffers (transpose scratch on the
    // scalar arm, pack panels on the vector arm) to this shape's footprint.
    gemm_at(a.data(), b.data(), c.data(), m, k, n);

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) gemm_at(a.data(), b.data(), c.data(), m, k, n);
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(allocs, 0u) << "steady-state gemm_at must reuse its scratch";
}

TEST(AllocCountTest, LegacyForwardStillAllocates) {
    // Sanity check that the counter actually observes the model: the
    // allocating path must register heap traffic, otherwise a broken
    // override would make the zero-allocation test pass vacuously.
    runtime::ThreadPool::set_global_threads(1);
    models::ResNet model(models::tiny_resnet_config(quant_ams_common()));
    model.set_training(false);
    Rng rng(3);
    Tensor x(Shape{4, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);
    (void)model.forward(x);  // warm-up

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    (void)model.forward(x);
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace ams
