// Runtime scaling microbench: wall-clock for the two hottest kernels —
// raw GEMM and the bit-exact VmacConv2d forward — plus a full batch-eval
// of the quantized+AMS tiny ResNet (allocating forward vs the compiled
// plan, with the arena high-water mark), at 1/2/4/8 pool threads. Prints
// a speedup table and writes a CSV artifact.
//
// On a single-core host the pool degrades gracefully: every thread count
// measures the same serial work (speedup ~1.0x), which is the expected
// "graceful no-op" outcome. Outputs are bit-identical at every thread
// count (see runtime_determinism_test), so only time varies here.
#include <chrono>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "ams/vmac_conv.hpp"
#include "compile/plan.hpp"
#include "core/bench_json.hpp"
#include "core/csv.hpp"
#include "core/report.hpp"
#include "models/resnet.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

using namespace ams;

namespace {

double seconds_of(const std::function<void()>& fn, int reps) {
    fn();  // warm-up: page in buffers, spin up workers
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / reps;
}

}  // namespace

int main() {
    core::print_banner(std::cout, "Runtime scaling: gemm + VmacConv2d forward vs threads",
                       "infrastructure (no paper figure)");

    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << "hardware_concurrency: " << hw << "\n\n";

    // GEMM workload: 384x512 * 512x384, well above the parallel threshold.
    Rng rng(21);
    const std::size_t m = 384, k = 512, n = 384;
    Tensor a(Shape{m, k});
    Tensor b(Shape{k, n});
    Tensor c(Shape{m, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);

    // VmacConv workload: bit-exact cells, 8 images x 8 out-channels tiles.
    Tensor w(Shape{8, 8, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    vmac::VmacConfig cfg;
    cfg.enob = 8.0;
    cfg.nmult = 8;
    vmac::VmacConv2d vconv(w, 1, 1, cfg, {}, vmac::BackendOptions{vmac::BackendKind::kBitExact},
                           Rng(22));
    Tensor x(Shape{8, 8, 12, 12});
    x.fill_uniform(rng, 0.0f, 1.0f);

    // Batch-eval workload: the full quantized+AMS tiny ResNet, compared
    // on the allocating forward vs the compiled plan (the ams_enob_sweep
    // inner loop). Also reports the arena high-water mark.
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;
    common.vmac.enob = 5.0;
    common.vmac.nmult = 8;
    models::ResNet model(models::tiny_resnet_config(common));
    model.set_training(false);
    Tensor ex(Shape{16, 3, 8, 8});
    ex.fill_uniform(rng, -1.0f, 1.0f);

    core::Table table({"Threads", "gemm (ms)", "gemm speedup", "vmac_conv (ms)",
                       "vmac speedup", "eval alloc (ms)", "eval plan (ms)",
                       "arena HWM (KiB)"});
    core::CsvWriter csv(core::artifact_dir() + "/runtime_scaling.csv",
                        {"threads", "gemm_ms", "gemm_speedup", "vmac_conv_ms",
                         "vmac_conv_speedup", "batch_eval_alloc_ms",
                         "batch_eval_plan_ms", "arena_hwm_bytes"});

    core::BenchReport report("runtime_scaling");
    report.record_runtime_env();  // "threads" = pre-sweep pool; rows carry the sweep
    report.config().set("hardware_concurrency", static_cast<std::uint64_t>(hw));
    double gemm_base = 0.0;
    double vmac_base = 0.0;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        runtime::ThreadPool::set_global_threads(threads);
        const double gemm_s =
            seconds_of([&] { gemm(a.data(), b.data(), c.data(), m, k, n); }, 5);
        const double vmac_s = seconds_of([&] { (void)vconv.forward(x); }, 2);
        const double eval_alloc_s = seconds_of([&] { (void)model.forward(ex); }, 3);
        // Fresh context per thread count: compile and warm-up are part of
        // the measured workflow's setup, but steady state is what repeats.
        runtime::EvalContext ctx;
        compile::ExecutionPlan plan = compile::compile(model, ex.shape());
        const double eval_plan_s = seconds_of(
            [&] {
                const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
                (void)plan.run(ex, ctx);
                ctx.rewind(cp);
            },
            3);
        const std::size_t hwm = ctx.high_water_mark();
        if (threads == 1) {
            gemm_base = gemm_s;
            vmac_base = vmac_s;
        }
        const double gemm_speedup = gemm_base / gemm_s;
        const double vmac_speedup = vmac_base / vmac_s;
        table.add_row({std::to_string(threads), core::fmt_fixed(gemm_s * 1e3, 2),
                       core::fmt_fixed(gemm_speedup, 2) + "x",
                       core::fmt_fixed(vmac_s * 1e3, 2),
                       core::fmt_fixed(vmac_speedup, 2) + "x",
                       core::fmt_fixed(eval_alloc_s * 1e3, 2),
                       core::fmt_fixed(eval_plan_s * 1e3, 2),
                       core::fmt_fixed(static_cast<double>(hwm) / 1024.0, 1)});
        csv.add_row({std::to_string(threads), core::fmt_fixed(gemm_s * 1e3, 4),
                     core::fmt_fixed(gemm_speedup, 3), core::fmt_fixed(vmac_s * 1e3, 4),
                     core::fmt_fixed(vmac_speedup, 3),
                     core::fmt_fixed(eval_alloc_s * 1e3, 4),
                     core::fmt_fixed(eval_plan_s * 1e3, 4), std::to_string(hwm)});
        core::BenchFields& row = report.add_row();
        row.set("threads", threads);
        row.set("gemm_ms", gemm_s * 1e3);
        row.set("gemm_speedup", gemm_speedup);
        row.set("vmac_conv_ms", vmac_s * 1e3);
        row.set("vmac_conv_speedup", vmac_speedup);
        row.set("batch_eval_alloc_ms", eval_alloc_s * 1e3);
        row.set("batch_eval_plan_ms", eval_plan_s * 1e3);
        row.set("arena_hwm_bytes", hwm);
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
    table.print(std::cout);
    report.capture_runtime_metrics();
    std::cout << "\nSeries written to " << csv.path() << " and " << report.write_artifact()
              << "\n";

    if (hw <= 1) {
        std::cout << "\nSingle-core host: speedups ~1.0x are expected (the pool\n"
                     "spawns no useful helpers; numerics stay identical).\n";
    } else {
        std::cout << "\nExpected on this host: >= 1.5x gemm speedup at 4 threads.\n";
    }
    return 0;
}
