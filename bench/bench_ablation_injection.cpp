// Ablation: lumped statistical injection (the paper's model) vs per-VMAC
// injection vs full bit-exact VMAC convolution (paper Sec. 4, "improving
// our error models").
//
// Question answered: does the cheap lumped-Gaussian model (Eq. 2) predict
// the same accuracy as actually computing the convolution through VMAC
// cells? The paper assumes yes ("assuming that the AMS errors at the
// output of each VMAC are independent and identically distributed");
// this bench measures it on the first conv layer of the trained network
// and at network level for the stochastic modes.
#include <chrono>
#include <cmath>
#include <iostream>

#include "ams/vmac_conv.hpp"
#include "bench_common.hpp"
#include "core/report.hpp"
#include "quant/dorefa.hpp"
#include "train/evaluate.hpp"

using namespace ams;

int main() {
    core::print_banner(std::cout,
                       "Ablation: lumped Eq.2 injection vs per-VMAC vs bit-exact VMAC conv",
                       "Sec. 2 lumping assumption + Sec. 4 finer-grained modeling");

    core::ExperimentEnv env(core::ExperimentOptions::standard());
    const TensorMap q88 = env.quantized_state(8, 8);

    // --- Network-level: lumped Gaussian vs per-VMAC uniform accuracy. ---
    core::Table acc_table({"ENOB", "Lumped Gaussian top-1", "Per-VMAC uniform top-1",
                           "Difference"});
    for (double enob : {5.0, 6.0, 7.0}) {
        const auto vmac_cfg = bench::vmac_at(enob);
        auto lumped = env.make_model(env.ams_common(8, 8, vmac_cfg));
        lumped->load_state("", q88);
        const auto r_lumped =
            train::evaluate_top1(*lumped, env.dataset().val_images(),
                                 env.dataset().val_labels(), env.options().batch_size, 5);
        auto per_vmac = env.make_model(env.ams_common(
            8, 8, vmac_cfg, vmac::InjectionMode::kPerVmacUniform));
        per_vmac->load_state("", q88);
        const auto r_pv =
            train::evaluate_top1(*per_vmac, env.dataset().val_images(),
                                 env.dataset().val_labels(), env.options().batch_size, 5);
        acc_table.add_row({core::fmt_fixed(enob, 1),
                           core::fmt_mean_std(r_lumped.mean, r_lumped.stddev),
                           core::fmt_mean_std(r_pv.mean, r_pv.stddev),
                           core::fmt_pct(std::fabs(r_lumped.mean - r_pv.mean))});
    }
    acc_table.print(std::cout);
    std::cout << "Differences within ~1-2 sample sigma validate the lumping (Sec. 2).\n\n";

    // --- Layer-level: bit-exact VMAC conv vs lumped model, error stats. ---
    auto model = env.make_model(env.quant_common(8, 8));
    model->load_state("", q88);
    auto& unit = *model->conv_units()[1];  // first 1x1 conv after stem
    const quant::DorefaWeights wq =
        quant::dorefa_quantize_weights(unit.conv().conv().weight().value, 8);

    // A quantized activation batch for that layer: use clipped inputs.
    Rng rng(5);
    const auto& opts = unit.conv().conv().options();
    Tensor x(Shape{4, opts.in_channels, 16, 16});
    x.fill_uniform(rng, 0.0f, 1.0f);

    core::Table err_table({"ENOB", "bit-exact conv err sigma", "Eq.2 model sigma", "ratio",
                           "slowdown vs GEMM"});
    for (double enob : {6.0, 8.0, 10.0}) {
        const auto vmac_cfg = bench::vmac_at(enob);
        // Exact digital reference through the plain conv.
        nn::Conv2d ref_conv(opts, rng);
        ref_conv.set_effective_weight(wq.quantized);
        const auto t0 = std::chrono::steady_clock::now();
        Tensor exact = ref_conv.forward(x);
        const auto t1 = std::chrono::steady_clock::now();

        vmac::VmacConv2d vconv(wq.quantized, opts.stride, opts.padding, vmac_cfg, {},
                               vmac::BackendOptions{vmac::BackendKind::kBitExact}, Rng(777));
        Tensor noisy = vconv.forward(x);
        const auto t2 = std::chrono::steady_clock::now();

        Tensor err = noisy - exact;
        const double sigma = std::sqrt(err.variance());
        const double model_sigma = vmac::total_error_stddev(vmac_cfg, vconv.n_tot());
        const double slowdown = std::chrono::duration<double>(t2 - t1).count() /
                                std::max(1e-9, std::chrono::duration<double>(t1 - t0).count());
        err_table.add_row({core::fmt_fixed(enob, 1), core::fmt_fixed(sigma, 5),
                           core::fmt_fixed(model_sigma, 5),
                           core::fmt_fixed(sigma / model_sigma, 2),
                           core::fmt_fixed(slowdown, 0) + "x"});
    }
    err_table.print(std::cout);
    std::cout << "\nratio ~ 1: the bit-exact datapath injects the error Eq. 2 predicts\n"
                 "(the >1 part at coarse ENOB is operand re-quantization, absent from the\n"
                 "lumped model). The slowdown column is the paper's stated cost of the\n"
                 "finer model.\n";
    return 0;
}
