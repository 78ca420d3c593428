// The acceptance criterion of the runtime subsystem: for a fixed seed,
// forward passes and evaluation accuracy are bit-identical no matter how
// many threads the global pool runs (AMSNET_THREADS=1 vs 4). Every kernel
// wired onto the pool keeps per-chunk arithmetic order fixed, and all
// injected noise is drawn from RngStream tiles keyed by data position, so
// scheduling cannot leak into numerics.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ams/error_injector.hpp"
#include "ams/vmac_conv.hpp"
#include "compile/plan.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "nn/conv2d.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "train/evaluate.hpp"

namespace ams {
namespace {

/// Runs `make_output()` under a global pool of `threads` executors and
/// returns the raw floats, restoring the env-default pool afterwards.
template <typename Fn>
std::vector<float> with_threads(std::size_t threads, Fn&& make_output) {
    runtime::ThreadPool::set_global_threads(threads);
    Tensor out = make_output();
    std::vector<float> bits(out.data(), out.data() + out.size());
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
    return bits;
}

void expect_bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    // memcmp, not float ==: bit-identical is the contract (covers NaN and
    // signed-zero payloads too, though none should appear here).
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(RuntimeDeterminismTest, GemmBitIdenticalAcrossThreadCounts) {
    Rng rng(7);
    const std::size_t m = 37, k = 53, n = 41;  // awkward sizes: uneven chunks
    Tensor a(Shape{m, k});
    Tensor b(Shape{k, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    auto run = [&] {
        Tensor c(Shape{m, n});
        gemm(a.data(), b.data(), c.data(), m, k, n);
        return c;
    };
    expect_bit_identical(with_threads(1, run), with_threads(4, run));
}

TEST(RuntimeDeterminismTest, GemmBitIdenticalAcrossThreadCountsOnBothArms) {
    // The AVX2 microkernel computes each C element with a full-K register
    // sweep, so the k-summation order cannot depend on how rows are
    // partitioned — the vector arm must honor the same bit-identity
    // contract as the scalar arm. Run both arms explicitly (the plain
    // GemmBitIdenticalAcrossThreadCounts test above covers whichever arm
    // the environment selected).
    Rng rng(7);
    const std::size_t m = 37, k = 53, n = 41;  // uneven chunks AND 6x16 tails
    Tensor a(Shape{m, k});
    Tensor b(Shape{k, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    auto run = [&] {
        Tensor c(Shape{m, n});
        gemm(a.data(), b.data(), c.data(), m, k, n);
        return c;
    };
    const simd::Level saved = simd::active_level();
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
        if (level == simd::Level::kAvx2 && !simd::cpu_supports_avx2_fma()) continue;
        simd::set_level(level);
        expect_bit_identical(with_threads(1, run), with_threads(4, run));
    }
    simd::set_level(saved);
}

TEST(RuntimeDeterminismTest, Conv2dForwardBitIdenticalAcrossThreadCounts) {
    auto run = [] {
        Rng rng(42);
        nn::Conv2dOptions opts{3, 8, 3, 1, 1, true};
        nn::Conv2d conv(opts, rng);
        Tensor x(Shape{5, 3, 9, 9});  // batch 5: chunks split unevenly at 4 threads
        x.fill_uniform(rng, -1.0f, 1.0f);
        return conv.forward(x);
    };
    expect_bit_identical(with_threads(1, run), with_threads(4, run));
}

TEST(RuntimeDeterminismTest, ErrorInjectorBitIdenticalAcrossThreadCounts) {
    auto run = [] {
        vmac::VmacConfig cfg;
        cfg.enob = 6.0;
        cfg.nmult = 8;
        vmac::ErrorInjector inj(cfg, 72, Rng(42));
        Rng rng(1);
        Tensor x(Shape{3, 8, 13, 13});  // 4056 elements: several RNG tiles
        x.fill_uniform(rng, -1.0f, 1.0f);
        // Two passes: the per-forward epoch must also be thread-invariant.
        (void)inj.forward(x);
        return inj.forward(x);
    };
    expect_bit_identical(with_threads(1, run), with_threads(4, run));
}

TEST(RuntimeDeterminismTest, ErrorInjectorPerVmacModeBitIdentical) {
    auto run = [] {
        vmac::VmacConfig cfg;
        cfg.enob = 5.0;
        cfg.nmult = 8;
        vmac::ErrorInjector inj(cfg, 72, Rng(43), vmac::InjectionMode::kPerVmacUniform);
        Rng rng(2);
        Tensor x(Shape{2, 8, 16, 16});
        x.fill_uniform(rng, -1.0f, 1.0f);
        return inj.forward(x);
    };
    expect_bit_identical(with_threads(1, run), with_threads(4, run));
}

TEST(RuntimeDeterminismTest, VmacConvForwardBitIdenticalAcrossThreadCounts) {
    auto run = [] {
        Rng rng(11);
        Tensor w(Shape{4, 3, 3, 3});
        w.fill_uniform(rng, -1.0f, 1.0f);
        vmac::VmacConfig cfg;
        cfg.enob = 8.0;
        cfg.nmult = 8;
        cfg.bits_w = 16;
        cfg.bits_x = 16;
        vmac::VmacConv2d vconv(w, 1, 1, cfg, {},
                               vmac::BackendOptions{vmac::BackendKind::kBitExact}, Rng(12));
        Tensor x(Shape{3, 3, 6, 6});  // 12 (image, out-channel) tiles
        x.fill_uniform(rng, 0.0f, 1.0f);
        return vconv.forward(x);
    };
    expect_bit_identical(with_threads(1, run), with_threads(4, run));
}

TEST(RuntimeDeterminismTest, ArenaPathMatchesLegacyAllocatingPath) {
    // The no-numerics-change guarantee of memory planning: the compiled
    // plan's arena forward must be bit-identical to the allocating eval
    // forward, at any thread count. Fresh model per run: the injectors
    // advance a per-forward noise epoch, so reuse would shift streams.
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;  // stochastic injection: the hard case
    common.vmac.enob = 4.0;
    common.vmac.nmult = 8;

    auto make_input = [] {
        Rng rng(31);
        Tensor x(Shape{5, 3, 8, 8});  // batch 5: uneven chunks at 4 threads
        x.fill_uniform(rng, -1.0f, 1.0f);
        return x;
    };
    auto legacy = [&] {
        models::ResNet model(models::tiny_resnet_config(common));
        model.set_training(false);
        return model.forward(make_input());
    };
    auto arena = [&] {
        models::ResNet model(models::tiny_resnet_config(common));
        model.set_training(false);
        const Tensor x = make_input();
        runtime::EvalContext ctx;
        compile::ExecutionPlan plan = compile::compile(model, x.shape());
        const Tensor out = plan.run(x, ctx);
        return Tensor(out);  // deep copy out of the arena before ctx dies
    };

    const std::vector<float> reference = with_threads(1, legacy);
    expect_bit_identical(reference, with_threads(1, arena));
    expect_bit_identical(reference, with_threads(4, arena));
    expect_bit_identical(reference, with_threads(4, legacy));
}

TEST(RuntimeDeterminismTest, EvaluateSharedContextMatchesLocalContext) {
    // evaluate_top1 with a caller-provided EvalContext (the sweep-worker
    // configuration, arenas warm across calls) must score exactly like the
    // internally managed context.
    data::DatasetOptions dopts;
    dopts.classes = 4;
    dopts.train_per_class = 4;
    dopts.val_per_class = 6;
    dopts.image_size = 8;
    dopts.seed = 15;
    data::SyntheticImageNet ds(dopts);

    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;
    common.vmac.enob = 4.0;
    common.vmac.nmult = 8;

    auto passes = [&](runtime::EvalContext* ctx) {
        models::ResNet model(models::tiny_resnet_config(common));
        return train::evaluate_top1(model, ds.val_images(), ds.val_labels(), 16, 3, ctx)
            .passes;
    };
    runtime::EvalContext shared;
    // Two evaluations through the same context: the second reuses warmed
    // arenas and must still match the fresh-context result.
    const std::vector<double> warm_first = passes(&shared);
    const std::vector<double> warm_second = passes(&shared);
    const std::vector<double> local = passes(nullptr);
    ASSERT_EQ(warm_first.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_DOUBLE_EQ(warm_first[i], local[i]) << "pass " << i;
        EXPECT_DOUBLE_EQ(warm_second[i], local[i]) << "pass " << i;
    }
}

TEST(RuntimeDeterminismTest, EvalAccuracyBitIdenticalAcrossThreadCounts) {
    data::DatasetOptions dopts;
    dopts.classes = 4;
    dopts.train_per_class = 4;
    dopts.val_per_class = 8;
    dopts.image_size = 8;
    dopts.seed = 9;

    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;  // stochastic injection: the hard case
    common.vmac.enob = 4.0;
    common.vmac.nmult = 8;

    auto accuracies = [&](std::size_t threads) {
        runtime::ThreadPool::set_global_threads(threads);
        data::SyntheticImageNet ds(dopts);
        models::ResNet model(models::tiny_resnet_config(common));
        const train::EvalResult r =
            train::evaluate_top1(model, ds.val_images(), ds.val_labels(), 16, 3);
        runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
        return r.passes;
    };
    const std::vector<double> serial = accuracies(1);
    const std::vector<double> parallel = accuracies(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "pass " << i;
    }
}

}  // namespace
}  // namespace ams
