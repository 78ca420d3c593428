// Layer microbenchmarks of the traced run. Shapes come from the
// fixture's compiled plans (the conv steps of the mini-ResNet at batch
// 64), so each probe times exactly the kernel calls the plans make.
#include <filesystem>

#include "ams/error_injector.hpp"
#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "perfbench.hpp"
#include "quant/quantized_view.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int.hpp"
#include "tensor/serialize.hpp"
#include "train/checkpoint_cache.hpp"
#include "train/evaluate.hpp"

namespace fs = std::filesystem;
using namespace ams;

namespace perfbench {

namespace {

constexpr std::size_t kReps = 5;

/// Median seconds of `reps` timed calls of `fn` (after one warm-up),
/// each recorded as a span named `name`.
template <typename Fn>
double median_call_s(const char* name, std::size_t reps, Fn&& fn) {
    fn();
    std::vector<double> s;
    for (std::size_t r = 0; r < reps; ++r) {
        const Clock::time_point t = Clock::now();
        {
            ScopedSpan span(name);
            fn();
        }
        s.push_back(seconds_since(t));
    }
    return median(s);
}

std::vector<const compile::Step*> conv_steps(const compile::ExecutionPlan& plan) {
    std::vector<const compile::Step*> out;
    for (const compile::Step& step : plan.program().steps) {
        if (step.kind == compile::StepKind::kConv) out.push_back(&step);
    }
    return out;
}

void probe_kernels(Fixture& fx, const Options& opts, Metrics& out) {
    const std::size_t batch = config::kEvalBatch;
    Rng rng(mix64(opts.seed ^ 0x6E33));
    const auto uniform = [&](std::vector<float>& v) {
        for (float& x : v) x = static_cast<float>(rng.next_u64() >> 40) * 0x1.0p-24f;
    };

    // fp32 GEMM: one weight x columns product per image per conv step,
    // images spread over the pool as the plan's conv steps spread them.
    const std::size_t grain = runtime::suggest_grain(batch, 1);
    double flops = 0.0;
    double gemm_s = 0.0;
    for (const compile::Step* step : conv_steps(*fx.plan_fp32)) {
        const std::size_t m = step->out_channels;
        const std::size_t k = step->lowering.patch_size();
        const std::size_t n = step->lowering.out_spatial();
        std::vector<float> a(m * k), b(k * n), c(batch * m * n);
        uniform(a);
        uniform(b);
        gemm_s += median_call_s("tensor.gemm", kReps, [&] {
            runtime::parallel_for(0, batch, grain, [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                    gemm(a.data(), b.data(), c.data() + i * m * n, m, k, n);
                }
            });
        });
        flops += 2.0 * static_cast<double>(m * k * n * batch);
    }
    out.set("tensor.gemm_gflops", flops / gemm_s * 1e-9, "GFLOP/s");

    // int8 GEMM and activation encode on the int8 plan's integer steps.
    double ops = 0.0;
    double int_s = 0.0;
    double encoded = 0.0;
    double encode_s = 0.0;
    for (const compile::Step* step : conv_steps(*fx.plan_int8)) {
        if (step->numeric != compile::NumericMode::kInt8 || step->weight_i8 == nullptr) continue;
        const std::size_t m = step->out_channels;
        const std::size_t k = step->lowering.patch_size();
        const std::size_t n = step->lowering.out_spatial();
        std::vector<std::uint8_t> b(k * n);
        for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(rng.next_u64() % (step->act_levels + 1));
        std::vector<std::int32_t> c(batch * m * n);
        int_s += median_call_s("tensor.gemm_s8u8", kReps, [&] {
            runtime::parallel_for(0, batch, grain, [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                    gemm_s8u8(step->weight_i8, b.data(), c.data() + i * m * n, m, k, n);
                }
            });
        });
        ops += 2.0 * static_cast<double>(m * k * n * batch);

        // The executor encodes a step's whole input once, in pool chunks.
        std::vector<float> x(step->lowering.image_floats() * batch);
        uniform(x);
        std::vector<std::uint8_t> codes(x.size());
        encode_s += median_call_s("quant.encode_unit_u8", kReps, [&] {
            runtime::parallel_for(
                0, x.size(), runtime::suggest_grain(x.size(), 4096),
                [&](std::size_t i0, std::size_t i1) {
                    quant::encode_unit_u8(x.data() + i0, i1 - i0, step->act_levels,
                                          codes.data() + i0);
                });
        });
        encoded += static_cast<double>(x.size());
    }
    if (ops > 0.0) {
        out.set("tensor.gemm_int8_gops", ops / int_s * 1e-9, "GOP/s");
        out.set("quant.encode_u8_ns_per_value", encode_s / encoded * 1e9, "ns");
    }

    // Eq. 2 injection on every conv output of one batch.
    double samples = 0.0;
    double inject_s = 0.0;
    vmac::VmacConfig vcfg;
    vcfg.enob = config::kEnob;
    vcfg.nmult = config::kNmult;
    for (const compile::Step* step : conv_steps(*fx.plan_fp32)) {
        const std::size_t count = step->out_channels * step->lowering.out_spatial() * batch;
        vmac::ErrorInjector injector(vcfg, step->lowering.patch_size(), Rng(rng.next_u64()));
        std::vector<float> y(count);
        uniform(y);
        inject_s += median_call_s("ams.inject_inplace", kReps, [&] {
            injector.inject_inplace(y.data(), count, batch, step->out_channels);
        });
        samples += static_cast<double>(count);
    }
    out.set("ams.inject_ns_per_sample", inject_s / samples * 1e9, "ns");
}

void probe_model(Fixture& fx, const Options& opts, Metrics& out) {
    const Tensor& images = fx.data->val_images();
    runtime::EvalContext& ctx = fx.ctx;
    for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
        const double s = median_call_s("train.forward_batch", 4 * kReps, [&] {
            const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
            const Tensor logits =
                train::forward_batch(*fx.serve_model, train::slice_batch(images, 0, b, ctx), ctx);
            (void)logits;
            ctx.rewind(cp);
        });
        out.set("train.forward_batch_ms.b" + std::to_string(b), s * 1e3, "ms");
    }

    // One retrain batch: forward + loss, backward, SGD step.
    auto model = make_ams_model(opts, fx.data->max_abs_value());
    model->set_training(true);
    const std::size_t batch = 32;
    const std::size_t image = images.size() / images.dim(0);
    Tensor x(Shape{batch, images.dim(1), images.dim(2), images.dim(3)});
    std::copy(images.data(), images.data() + batch * image, x.data());
    const std::vector<std::size_t> labels(fx.data->val_labels().begin(),
                                          fx.data->val_labels().begin() + batch);
    nn::Sgd sgd(model->parameters(), nn::SgdOptions{0.01f, 0.9f, 0.0f});
    nn::SoftmaxCrossEntropy loss;
    std::vector<double> fwd, bwd, step;
    for (std::size_t r = 0; r < kReps + 1; ++r) {
        sgd.zero_grad();
        Clock::time_point t = Clock::now();
        {
            ScopedSpan span("nn.train_forward");
            (void)loss.forward(model->forward(x), labels);
        }
        fwd.push_back(seconds_since(t));
        t = Clock::now();
        {
            ScopedSpan span("nn.backward");
            (void)model->backward(loss.backward());
        }
        bwd.push_back(seconds_since(t));
        t = Clock::now();
        {
            ScopedSpan span("nn.sgd_step");
            sgd.step();
        }
        step.push_back(seconds_since(t));
    }
    out.set("nn.train_forward_ms", median(fwd) * 1e3, "ms");
    out.set("nn.backward_ms", median(bwd) * 1e3, "ms");
    out.set("nn.sgd_step_ms", median(step) * 1e3, "ms");

    // Checkpoint save (atomic publish) and load of the model's state.
    TensorMap state;
    model->collect_state("", state);
    const std::string path = fx.dir + "/probe.amsckpt";
    out.set("train.checkpoint_save_ms",
            median_call_s("train.save_state_atomic", kReps,
                          [&] { train::save_state_atomic(path, state); }) * 1e3,
            "ms");
    out.set("train.checkpoint_load_ms",
            median_call_s("train.load_state", kReps, [&] { (void)load_tensor_map_file(path); }) *
                1e3,
            "ms");
    fs::remove(path);
}

}  // namespace

void run_layer_probes(Fixture& fx, const Options& opts, Tally& tally, Metrics& out) {
    ScopedSpan phase("phase.layer_probes");
    try {
        probe_kernels(fx, opts, out);
        probe_model(fx, opts, out);
        tally.attempt(true, "");
    } catch (const std::exception& e) {
        tally.attempt(false, std::string("layer probes: ") + e.what());
    }
}

}  // namespace perfbench
