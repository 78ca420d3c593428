// The graph compiler's acceptance criterion (DESIGN.md §13): a compiled
// ExecutionPlan produces logits *bit-identical* to the eval-mode
// allocating Module::forward (the oracle) for every backend, at any
// thread count, on both SIMD arms. These tests pin that contract across
// the model variants the paper studies (quant+AMS, FP32, bottleneck,
// stem-maxpool), all six VMAC datapaths, partial batches, recording mode,
// post-compile injector toggles, the evaluate path, and serve's replicas.
// The BN fold pass (a deployment-semantics change, opt-in) is checked
// against the reference fold (models::fold_conv_bn + apply_folded) instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ams/vmac_backend.hpp"
#include "ams/vmac_conv.hpp"
#include "compile/plan.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/fold.hpp"
#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
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
    // memcmp, not float ==: bit-identical is the contract.
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

/// The core harness: fresh model per run (injector noise epochs advance
/// per forward, so models are never reused across runs), the eval-mode
/// allocating forward as oracle, compiled plan as candidate, over {1, 4}
/// threads and both SIMD arms.
template <typename MakeModel>
void expect_plan_matches_module(MakeModel&& make_model, const Tensor& x,
                                const compile::CompileOptions& copts = {}) {
    auto oracle = [&] {
        auto model = make_model();
        model->set_training(false);
        return model->forward(x);
    };
    auto planned = [&] {
        auto model = make_model();
        model->set_training(false);
        runtime::EvalContext ctx;
        compile::ExecutionPlan plan = compile::compile(*model, x.shape(), copts);
        const Tensor out = plan.run(x, ctx);
        return Tensor(out);  // deep copy out of the arena before ctx dies
    };
    const simd::Level saved = simd::active_level();
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
        if (level == simd::Level::kAvx2 && !simd::cpu_supports_avx2_fma()) continue;
        simd::set_level(level);
        const std::vector<float> reference = with_threads(1, oracle);
        expect_bit_identical(reference, with_threads(1, planned));
        expect_bit_identical(reference, with_threads(4, planned));
        expect_bit_identical(reference, with_threads(4, oracle));
    }
    simd::set_level(saved);
}

models::LayerCommon quant_ams_common() {
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;  // stochastic injection: the hard case
    common.vmac.enob = 4.0;
    common.vmac.nmult = 8;
    return common;
}

Tensor tiny_input(std::uint64_t seed = 31) {
    Rng rng(seed);
    Tensor x(Shape{5, 3, 8, 8});  // batch 5: uneven chunks at 4 threads
    x.fill_uniform(rng, -1.0f, 1.0f);
    return x;
}

TEST(PlanIdentityTest, TinyResNetQuantAmsBitIdentical) {
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    expect_plan_matches_module([&] { return std::make_unique<models::ResNet>(cfg); },
                               tiny_input());
}

TEST(PlanIdentityTest, TinyResNetUnfusedPlanBitIdentical) {
    // fuse=off lowers every elementwise layer as a standalone step with
    // its own buffer — a different plan, the same bits.
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    compile::CompileOptions copts;
    copts.fuse = false;
    expect_plan_matches_module([&] { return std::make_unique<models::ResNet>(cfg); },
                               tiny_input(), copts);
}

TEST(PlanIdentityTest, MiniResNetBottleneckBitIdentical) {
    // Bottleneck blocks bring identity shortcuts (the pinning path) and
    // stem stride-2 stages into the lowering.
    const models::ResNetConfig cfg = models::mini_resnet_config(quant_ams_common());
    Rng rng(17);
    Tensor x(Shape{3, 3, 16, 16});
    x.fill_uniform(rng, -1.0f, 1.0f);
    expect_plan_matches_module([&] { return std::make_unique<models::ResNet>(cfg); }, x);
}

TEST(PlanIdentityTest, Fp32BaselineBitIdentical) {
    // FP32 build: no quant_input, plain ReLU activations, latent weights
    // aliased directly (no compile-time re-quantization).
    models::LayerCommon common;  // bits 32/32, ams off
    const models::ResNetConfig cfg = models::tiny_resnet_config(common);
    expect_plan_matches_module([&] { return std::make_unique<models::ResNet>(cfg); },
                               tiny_input(5));
}

TEST(PlanIdentityTest, StemMaxpoolBitIdentical) {
    models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    cfg.stem_maxpool = true;  // exercises the kMaxPool lowering
    expect_plan_matches_module([&] { return std::make_unique<models::ResNet>(cfg); },
                               tiny_input(11));
}

TEST(PlanIdentityTest, PartialBatchBitIdentical) {
    // A plan compiled at batch 5 must serve any batch <= 5 with the same
    // bits as the oracle, including the epoch bookkeeping across a
    // full-then-partial sequence (the evaluate tail-batch pattern).
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    const Tensor x5 = tiny_input();
    const Tensor x3 = Tensor::borrowed(Shape{3, 3, 8, 8}, const_cast<float*>(x5.data()));

    auto oracle = [&] {
        models::ResNet model(cfg);
        model.set_training(false);
        Tensor both(Shape{x5.dim(0) + x3.dim(0), cfg.num_classes});
        const Tensor full = model.forward(x5);
        std::memcpy(both.data(), full.data(), full.size() * sizeof(float));
        const Tensor tail = model.forward(x3);
        std::memcpy(both.data() + full.size(), tail.data(), tail.size() * sizeof(float));
        return both;
    };
    auto planned = [&] {
        models::ResNet model(cfg);
        model.set_training(false);
        runtime::EvalContext ctx;
        compile::ExecutionPlan plan = compile::compile(model, x5.shape());
        Tensor both(Shape{x5.dim(0) + x3.dim(0), cfg.num_classes});
        const Tensor full = plan.run(x5, ctx);
        std::memcpy(both.data(), full.data(), full.size() * sizeof(float));
        const Tensor tail = plan.run(x3, ctx);
        std::memcpy(both.data() + full.size(), tail.data(), tail.size() * sizeof(float));
        return both;
    };
    expect_bit_identical(with_threads(1, oracle), with_threads(1, planned));
    expect_bit_identical(with_threads(4, oracle), with_threads(4, planned));
}

TEST(PlanIdentityTest, AllBackendsBitIdentical) {
    // Every hardware datapath through the kVmacConv lowering, wrapped in
    // a Sequential with a fusible ReLU tail. bits 9/9 so the partitioned
    // backend's sign-magnitude chunking (bits-1 divisible by nw/nx) holds.
    vmac::VmacConfig cfg;
    cfg.enob = 8.0;
    cfg.nmult = 8;
    cfg.bits_w = 9;
    cfg.bits_x = 9;
    Rng wrng(11);
    Tensor w(Shape{4, 3, 3, 3});
    w.fill_uniform(wrng, -1.0f, 1.0f);
    Rng xrng(13);
    Tensor x(Shape{3, 3, 6, 6});
    x.fill_uniform(xrng, 0.0f, 1.0f);

    for (vmac::BackendKind kind : vmac::all_backend_kinds()) {
        vmac::BackendOptions bopts;
        bopts.kind = kind;
        auto make_model = [&] {
            auto seq = std::make_unique<nn::Sequential>();
            seq->emplace<vmac::VmacConv2d>(Tensor(w), 1, 1, cfg, vmac::AnalogOptions{}, bopts,
                                           Rng(12));
            seq->emplace<nn::ReLU>();
            return seq;
        };
        SCOPED_TRACE(vmac::backend_kind_name(kind));
        expect_plan_matches_module(make_model, x);
    }
}

TEST(PlanIdentityTest, InjectorToggleAfterCompileBitIdentical) {
    // The fused tail's inject slot is resolved at *run* time, so flipping
    // the master AMS switch after compiling must track the oracle.
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    const Tensor x = tiny_input();
    auto oracle = [&] {
        models::ResNet model(cfg);
        model.set_training(false);
        model.set_ams_enabled(false);
        const Tensor quiet = model.forward(x);
        Tensor both(Shape{2 * quiet.dim(0), quiet.dim(1)});
        std::memcpy(both.data(), quiet.data(), quiet.size() * sizeof(float));
        model.set_ams_enabled(true);
        const Tensor noisy = model.forward(x);
        std::memcpy(both.data() + quiet.size(), noisy.data(), noisy.size() * sizeof(float));
        return both;
    };
    auto planned = [&] {
        models::ResNet model(cfg);
        model.set_training(false);
        runtime::EvalContext ctx;
        compile::ExecutionPlan plan = compile::compile(model, x.shape());
        model.set_ams_enabled(false);
        const Tensor quiet = plan.run(x, ctx);
        Tensor both(Shape{2 * quiet.dim(0), quiet.dim(1)});
        std::memcpy(both.data(), quiet.data(), quiet.size() * sizeof(float));
        model.set_ams_enabled(true);
        const Tensor noisy = plan.run(x, ctx);
        std::memcpy(both.data() + quiet.size(), noisy.data(), noisy.size() * sizeof(float));
        return both;
    };
    expect_bit_identical(with_threads(1, oracle), with_threads(1, planned));
    expect_bit_identical(with_threads(4, oracle), with_threads(4, planned));
}

TEST(PlanIdentityTest, RecordingModeMatchesModuleWalk) {
    // Fig. 6 instrumentation through the compiled path: logits stay
    // bit-identical and the accumulated per-layer activation means agree
    // exactly (same serial double summation over the same values).
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    const Tensor x = tiny_input();
    std::vector<double> oracle_means;
    std::vector<double> plan_means;
    auto oracle = [&] {
        models::ResNet model(cfg);
        model.set_training(false);
        model.set_recording(true);
        Tensor out = model.forward(x);
        oracle_means = model.activation_means();
        return out;
    };
    auto planned = [&] {
        models::ResNet model(cfg);
        model.set_training(false);
        runtime::EvalContext ctx;
        compile::ExecutionPlan plan = compile::compile(model, x.shape());
        model.set_recording(true);  // after compile: resolved at run time
        const Tensor out = plan.run(x, ctx);
        plan_means = model.activation_means();
        return Tensor(out);
    };
    expect_bit_identical(with_threads(1, oracle), with_threads(1, planned));
    ASSERT_EQ(oracle_means.size(), plan_means.size());
    ASSERT_FALSE(oracle_means.empty());
    for (std::size_t i = 0; i < oracle_means.size(); ++i) {
        EXPECT_DOUBLE_EQ(oracle_means[i], plan_means[i]) << "conv layer " << i;
    }
}

TEST(PlanIdentityTest, FoldedPlanMatchesReferenceFold) {
    // CompileOptions::fold_bn on a single FP32 ConvUnit must equal the
    // reference deployment fold (fold_conv_bn + apply_folded) bit for bit
    // — both sides call models::fold_bn_into_conv and the shared
    // conv_eval_run executor with a per-channel digital bias epilogue.
    Rng rng(23);
    nn::Conv2dOptions opts{3, 8, 3, 1, 1, false};
    vmac::VmacConfig vcfg;
    vcfg.enob = 6.0;
    vcfg.nmult = 8;
    models::ConvUnit unit(opts, quant::kFloatBits, vcfg, /*ams_enabled=*/false, rng,
                          vmac::InjectionMode::kLumpedGaussian, /*noise_stream=*/0);

    // Drive the BN running statistics off their init so the fold is
    // non-trivial.
    Tensor warm(Shape{4, 3, 8, 8});
    warm.fill_uniform(rng, -1.0f, 1.0f);
    unit.set_training(true);
    (void)unit.forward(warm);
    warm.fill_uniform(rng, -1.0f, 1.0f);
    (void)unit.forward(warm);
    unit.set_training(false);

    Tensor x(Shape{5, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const models::FoldedConv folded = models::fold_conv_bn(unit, unit.bn().eps());
    const Tensor reference = models::apply_folded(folded, x, opts.stride, opts.padding);

    compile::CompileOptions copts;
    copts.fold_bn = true;
    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(unit, x.shape(), copts);
    const Tensor out = plan.run(x, ctx);

    ASSERT_EQ(out.size(), reference.size());
    EXPECT_EQ(std::memcmp(out.data(), reference.data(), out.size() * sizeof(float)), 0);
    // The BN layer vanished from the plan entirely.
    EXPECT_GE(plan.stats().layers_fused, 1u);
    for (const compile::Step& step : plan.program().steps) {
        EXPECT_NE(step.kind, compile::StepKind::kElementwise);
        for (const compile::EwOp& op : step.tail) {
            EXPECT_NE(op.kind, compile::EwOp::Kind::kBatchNorm);
        }
    }
}

TEST(PlanIdentityTest, FoldedResNetRunsAndDropsBatchNorm) {
    // Network-level fold smoke test (quantized weights are re-quantized on
    // the folded grid, so logits legitimately differ from the unfolded
    // forward): the plan compiles, runs, and contains no BN work.
    models::LayerCommon common = quant_ams_common();
    common.ams_enabled = false;  // folding is a deployment (noise-free) step
    const models::ResNetConfig cfg = models::tiny_resnet_config(common);
    models::ResNet model(cfg);
    model.set_training(false);
    const Tensor x = tiny_input();
    compile::CompileOptions copts;
    copts.fold_bn = true;
    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(model, x.shape(), copts);
    const Tensor out = plan.run(x, ctx);
    ASSERT_EQ(out.rank(), 2u);
    EXPECT_EQ(out.dim(0), 5u);
    EXPECT_EQ(out.dim(1), cfg.num_classes);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(std::isfinite(out[i])) << "logit " << i;
    }
    for (const compile::Step& step : plan.program().steps) {
        for (const compile::EwOp& op : step.tail) {
            EXPECT_NE(op.kind, compile::EwOp::Kind::kBatchNorm);
        }
    }
}

TEST(PlanIdentityTest, PlanArenaSmallerThanModuleWalk) {
    for (const models::ResNetConfig& cfg :
         {models::tiny_resnet_config(quant_ams_common()),
          models::mini_resnet_config(quant_ams_common())}) {
        models::ResNet model(cfg);
        model.set_training(false);
        const Shape in{4, 3, 16, 16};
        compile::ExecutionPlan fused = compile::compile(model, in);
        EXPECT_GT(fused.stats().layers_fused, 0u);
        EXPECT_GT(fused.stats().intermediates_eliminated, 0u);
        EXPECT_LT(fused.stats().plan_floats, fused.stats().module_walk_floats)
            << cfg.stages.size() << "-stage config";

        compile::CompileOptions unfused;
        unfused.fuse = false;
        compile::ExecutionPlan baseline = compile::compile(model, in, unfused);
        EXPECT_LE(fused.arena_floats(), baseline.arena_floats());
    }
}

/// Saves AMSNET_GEMM_INT and pins it off for the guard's lifetime: the
/// integer GEMM path is a toleranced realization, not part of the
/// bit-identity contract (the CI int8 shard exports AMSNET_GEMM_INT=int8
/// globally), and evaluate_* and serve's compiles read it.
class GemmIntOffGuard {
public:
    GemmIntOffGuard() {
        const char* saved = ::getenv("AMSNET_GEMM_INT");
        had_ = saved != nullptr;
        if (had_) saved_ = saved;
        ::setenv("AMSNET_GEMM_INT", "off", 1);
    }
    ~GemmIntOffGuard() {
        if (had_) {
            ::setenv("AMSNET_GEMM_INT", saved_.c_str(), 1);
        } else {
            ::unsetenv("AMSNET_GEMM_INT");
        }
    }
    GemmIntOffGuard(const GemmIntOffGuard&) = delete;
    GemmIntOffGuard& operator=(const GemmIntOffGuard&) = delete;

private:
    bool had_ = false;
    std::string saved_;
};

TEST(PlanIdentityTest, EvaluatePassesMatchOracleTop1) {
    // evaluate_top1's per-pass accuracies equal the top-1 of the oracle
    // logits: a fresh, identically seeded model pushed through the same
    // batch sequence (16 + a partial 8) with the allocating forward, so
    // every injector consumes the same noise epochs in the same order.
    data::DatasetOptions dopts;
    dopts.classes = 4;
    dopts.train_per_class = 4;
    dopts.val_per_class = 6;
    dopts.image_size = 8;
    dopts.seed = 15;
    data::SyntheticImageNet ds(dopts);
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    const Tensor& images = ds.val_images();
    const std::vector<std::size_t>& labels = ds.val_labels();
    const std::size_t batch = 16;
    const std::size_t passes = 3;
    GemmIntOffGuard gemm_int_off;

    models::ResNet evaluated(cfg);
    const std::vector<double> got =
        train::evaluate_top1(evaluated, images, labels, batch, passes).passes;

    models::ResNet oracle(cfg);
    oracle.set_training(false);
    runtime::EvalContext ctx;
    const std::size_t n = images.dim(0);
    ASSERT_EQ(got.size(), passes);
    for (std::size_t p = 0; p < passes; ++p) {
        double hits = 0.0;
        for (std::size_t start = 0; start < n; start += batch) {
            const std::size_t count = std::min(batch, n - start);
            const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
            const Tensor logits =
                train::forward_batch(oracle, train::slice_batch(images, start, count, ctx), ctx);
            const std::vector<std::size_t> batch_labels(labels.begin() + start,
                                                        labels.begin() + start + count);
            hits += nn::topk_accuracy(logits, batch_labels, 1) * static_cast<double>(count);
            ctx.rewind(cp);
        }
        EXPECT_DOUBLE_EQ(got[p], hits / static_cast<double>(n)) << "pass " << p;
    }
}

TEST(PlanIdentityTest, CompileRejectsTrainingModeAndBadBatch) {
    const models::ResNetConfig cfg = models::tiny_resnet_config(quant_ams_common());
    models::ResNet model(cfg);
    model.set_training(true);
    EXPECT_THROW((void)compile::compile(model, Shape{5, 3, 8, 8}), compile::CompileError);
    model.set_training(false);
    EXPECT_THROW((void)compile::compile(model, Shape{0, 3, 8, 8}), compile::CompileError);

    compile::ExecutionPlan plan = compile::compile(model, Shape{5, 3, 8, 8});
    runtime::EvalContext ctx;
    Tensor oversize(Shape{6, 3, 8, 8});
    EXPECT_THROW((void)plan.run(oversize, ctx), std::invalid_argument);
    Tensor wrong_chw(Shape{5, 3, 9, 9});
    EXPECT_THROW((void)plan.run(wrong_chw, ctx), std::invalid_argument);
}

// ----- serve-level compiled replicas -----

std::vector<std::vector<float>> serve_logits(models::ResNet& primary, const Tensor& images) {
    serve::ServerOptions sopts;
    sopts.instances = 1;
    sopts.max_batch = 4;
    sopts.max_delay_us = 0;
    serve::InferenceServer server(
        primary, Shape{images.dim(1), images.dim(2), images.dim(3)}, sopts);
    const std::size_t image = images.dim(1) * images.dim(2) * images.dim(3);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(images.dim(0));
    for (std::size_t i = 0; i < images.dim(0); ++i) {
        futures.push_back(server.submit(images.data() + i * image));
    }
    std::vector<std::vector<float>> logits;
    logits.reserve(futures.size());
    for (auto& f : futures) logits.push_back(f.get().logits);
    return logits;
}

TEST(PlanIdentityTest, ServeCompiledReplicaBitIdentical) {
    // Deterministic configuration (no AMS noise): the compiled replicas
    // must serve logits bit-identical to the oracle, per image.
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;  // quantized but noise-free => schedule-invariant
    const models::ResNetConfig cfg = models::tiny_resnet_config(common);
    models::ResNet primary(cfg);
    primary.set_training(false);
    Rng rng(41);
    Tensor images(Shape{8, 3, 8, 8});
    images.fill_uniform(rng, -1.0f, 1.0f);

    const Tensor reference = primary.forward(images);
    std::vector<std::vector<float>> served;
    {
        GemmIntOffGuard gemm_int_off;
        served = serve_logits(primary, images);
    }
    ASSERT_EQ(served.size(), images.dim(0));
    const std::size_t classes = reference.dim(1);
    for (std::size_t i = 0; i < served.size(); ++i) {
        ASSERT_EQ(served[i].size(), classes);
        EXPECT_EQ(std::memcmp(served[i].data(), reference.data() + i * classes,
                              classes * sizeof(float)),
                  0)
            << "image " << i;
    }
}

/// A module the compiler cannot lower: per-image row sums as two logits.
class OpaqueModule : public nn::Module {
public:
    Tensor forward(const Tensor& input) override {
        const std::size_t n = input.dim(0);
        const std::size_t per_image = input.size() / n;
        Tensor out(Shape{n, 2});
        for (std::size_t i = 0; i < n; ++i) {
            float sum = 0.0f;
            const float* row = input.data() + i * per_image;
            for (std::size_t j = 0; j < per_image; ++j) sum += row[j];
            out[i * 2] = sum;
            out[i * 2 + 1] = -sum;
        }
        return out;
    }
    Tensor backward(const Tensor&) override { throw std::logic_error("eval only"); }
    [[nodiscard]] std::string name() const override { return "OpaqueModule"; }
};

TEST(PlanIdentityTest, ServeRejectsUnsupportedGraph) {
    // The plan is the only inference path: a graph the compiler cannot
    // lower is a construction error, never a silent fallback.
    serve::ServerOptions sopts;
    sopts.instances = 1;
    auto factory = [](std::size_t) -> std::unique_ptr<nn::Module> {
        return std::make_unique<OpaqueModule>();
    };
    EXPECT_THROW(serve::InferenceServer(factory, Shape{3, 4, 4}, sopts),
                 compile::CompileError);
}

}  // namespace
}  // namespace ams
