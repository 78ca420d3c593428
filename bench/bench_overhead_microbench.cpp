// Section 2 claim: "DoReFa-based quantization and AMS error injection
// together incur a roughly 50% overhead in forward pass computation time
// compared to the out-of-the-box FP32 network."
//
// Times the MiniResNet forward pass (batch 8) in the three variants, plus
// a full training step (forward + backward) for FP32 and quantized + AMS,
// with std::chrono::steady_clock. AMSNET_BENCH_QUICK=1 shrinks the
// repetition counts.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "models/resnet.hpp"

using namespace ams;

namespace {

models::LayerCommon variant(std::size_t bits, bool ams) {
    models::LayerCommon c;
    c.bits_w = bits;
    c.bits_x = bits;
    c.ams_enabled = ams;
    c.vmac.enob = 6.0;
    c.vmac.nmult = 8;
    return c;
}

Tensor make_input() {
    Rng rng(1);
    Tensor x(Shape{8, 3, 16, 16});
    x.fill_uniform(rng, -2.0f, 2.0f);
    return x;
}

/// The FP32 variant keeps the default input range; the quantized ones
/// cover the [-2, 2] inputs of make_input.
models::ResNetConfig config(std::size_t bits, bool ams) {
    return bits == quant::kFloatBits ? models::mini_resnet_config(variant(bits, ams))
                                     : models::mini_resnet_config(variant(bits, ams), 10, 2.5f);
}

/// Mean ms per eval-mode forward pass.
double forward_ms(std::size_t bits, bool ams, int reps) {
    models::ResNet model(config(bits, ams));
    model.set_training(false);
    const Tensor x = make_input();
    return 1e3 * bench::seconds_of([&] { (void)model.forward(x); }, reps);
}

/// Mean ms per training step: forward then backward of a fixed gradient.
/// The paper's 50% figure is about the retraining loop.
double train_step_ms(std::size_t bits, bool ams, int reps) {
    models::ResNet model(config(bits, ams));
    model.set_training(true);
    const Tensor x = make_input();
    const Tensor g(Shape{8, 10}, 0.01f);
    return 1e3 * bench::seconds_of(
                     [&] {
                         (void)model.forward(x);
                         (void)model.backward(g);
                     },
                     reps);
}

}  // namespace

int main() {
    core::print_banner(std::cout, "Forward / training-step overhead of quantization + AMS",
                       "Sec. 2: ~50% forward-pass overhead vs FP32");

    const bool quick = bench::quick();
    const int fwd_reps = quick ? 5 : 100;
    const int step_reps = quick ? 3 : 40;

    const double fwd_fp32 = forward_ms(quant::kFloatBits, false, fwd_reps);
    const double fwd_q8 = forward_ms(8, false, fwd_reps);
    const double fwd_ams = forward_ms(8, true, fwd_reps);
    const double step_fp32 = train_step_ms(quant::kFloatBits, false, step_reps);
    const double step_ams = train_step_ms(8, true, step_reps);

    core::Table table({"row", "ms/iter", "vs FP32"});
    const auto add = [&](const std::string& name, double ms, double fp32_ms) {
        table.add_row({name, core::fmt_fixed(ms, 2), core::fmt_pct(ms / fp32_ms - 1.0, 0)});
    };
    add("BM_ForwardFp32", fwd_fp32, fwd_fp32);
    add("BM_ForwardQuantized8b", fwd_q8, fwd_fp32);
    add("BM_ForwardQuantizedAms", fwd_ams, fwd_fp32);
    add("BM_TrainStepFp32", step_fp32, step_fp32);
    add("BM_TrainStepQuantizedAms", step_ams, step_fp32);
    table.print(std::cout);
    std::cout << "(mean of " << fwd_reps << " forward / " << step_reps
              << " training-step iterations after one warm-up; paper: ~+50% forward)\n";
    return 0;
}
