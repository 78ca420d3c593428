// amsnet_perfbench: the canonical end-to-end + per-layer benchmark.
//
//   amsnet_perfbench --workload ams_eval|serve|sweep --seed N --seconds S
//                    --trace 0|1 --workdir DIR
//
// perfbench/run.py builds this binary, pins the environment and supplies
// a per-invocation --workdir. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (the
// library's counters on, plus the benchmark's spans) and the tracing
// overhead against an untraced run of the same workload.
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "runtime/metrics.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "sweep/worker.hpp"
#include "tensor/gemm_int.hpp"

namespace fs = std::filesystem;
using namespace ams;
using namespace perfbench;
namespace metrics = ams::runtime::metrics;

namespace {

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},    {"eval_ips", "1/s"},
    {"plan_fp32_ips", "1/s"}, {"plan_int8_ips", "1/s"}, {"light_p50_ms", "ms"},
    {"light_p75_ms", "ms"},   {"heavy_p50_ms", "ms"},   {"heavy_p95_ms", "ms"},
    {"points_per_s", "1/s"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.gemm_flops_per_image", "count"},
    {"tensor.gemm_int8_gops", "GOP/s"},
    {"quant.encode_u8_ns_per_value", "ns"},
    {"ams.inject_ns_per_sample", "ns"},
    {"ams.injected_samples_per_image", "count"},
    {"compile.compile_ms", "ms"},
    {"compile.plan_fp32_batch_ms", "ms"},
    {"compile.plan_int8_batch_ms", "ms"},
    {"compile.arena_floats", "count"},
    {"train.evaluate_batch_ms", "ms"},
    {"train.forward_batch_ms.b1", "ms"},
    {"train.forward_batch_ms.b8", "ms"},
    {"serve.submit_us", "us"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.batch_fill", "ratio"},
    {"serve.batch_run_ms", "ms"},
    {"serve.max_queue_depth", "count"},
    {"serve.generator_lateness_p99_ms", "ms"},
    {"nn.train_forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.sgd_step_ms", "ms"},
    {"core.enob_point_s", "s"},
    {"train.checkpoint_save_ms", "ms"},
    {"train.checkpoint_load_ms", "ms"},
    {"train.checkpoint_disk_hits", "count"},
    {"train.checkpoint_misses", "count"},
    {"sweep.replay_ms", "ms"},
    {"sweep.merge_ms", "ms"},
    {"sweep.workers_spawned", "count"},
    {"sweep.points_completed", "count"},
    {"runtime.parallel_regions_per_image", "count"},
    {"runtime.arena_hwm_bytes", "bytes"},
    {"data.dataset_build_s", "s"},
    {"trace.uncovered_pct", "%"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "amsnet_perfbench: " << why
              << "\nusage: amsnet_perfbench --workload ams_eval|serve|sweep --seed N"
                 " --seconds S --trace 0|1 --workdir DIR\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            have_workload = true;
            if (value == "ams_eval") {
                o.workload = Workload::kAmsEval;
            } else if (value == "serve") {
                o.workload = Workload::kServe;
            } else if (value == "sweep") {
                o.workload = Workload::kSweep;
            } else {
                usage("unknown workload " + value);
            }
        } else if (flag == "--seed") {
            o.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value);
        } else if (flag == "--trace") {
            o.trace = value == "1";
        } else if (flag == "--workdir") {
            o.workdir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (o.workdir.empty() || !fs::is_directory(o.workdir)) usage("--workdir must exist");
    cpu_set_t set;
    CPU_ZERO(&set);
    o.cores = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? static_cast<std::size_t>(CPU_COUNT(&set))
                  : std::max(1u, std::thread::hardware_concurrency());
    return o;
}

/// Runs the three phase groups; the workload's own group gets the budget.
/// `between` runs after the eval and serve groups (the in-process
/// inference work), before the sweep group.
template <typename Between>
void run_groups(Fixture& fx, const Options& opts, Tally& tally, Metrics& out, Between&& between) {
    const auto budget = [&](Workload w) { return Budget{opts.seconds, opts.workload == w}; };
    run_eval_phase(fx, budget(Workload::kAmsEval), tally, out);
    run_serve_phase(fx, opts, budget(Workload::kServe), tally, out);
    between();
    run_sweep_phase(fx, opts, budget(Workload::kSweep), tally, out);
}

/// Runs only the workload's own group (the untraced reference of the
/// traced run).
void run_native_group(Fixture& fx, const Options& opts, Tally& tally, Metrics& out) {
    const Budget budget{opts.seconds, true};
    switch (opts.workload) {
        case Workload::kAmsEval: run_eval_phase(fx, budget, tally, out); break;
        case Workload::kServe: run_serve_phase(fx, opts, budget, tally, out); break;
        case Workload::kSweep: run_sweep_phase(fx, opts, budget, tally, out); break;
    }
}

/// Relative slowdown (traced vs untraced) of the workload's own
/// end-to-end metrics, median over them, in percent.
double tracing_overhead_pct(const Options& opts, const Metrics& plain, const Metrics& traced) {
    std::vector<const char*> higher;
    std::vector<const char*> lower;
    switch (opts.workload) {
        case Workload::kAmsEval: higher = {"eval_ips", "plan_fp32_ips", "plan_int8_ips"}; break;
        case Workload::kServe:
            lower = {"light_p50_ms", "light_p75_ms", "heavy_p50_ms", "heavy_p95_ms"};
            break;
        case Workload::kSweep: higher = {"points_per_s"}; break;
    }
    std::vector<double> slowdown;
    for (const char* m : higher) {
        if (plain.has(m) && traced.has(m)) slowdown.push_back(plain.value(m) / traced.value(m) - 1);
    }
    for (const char* m : lower) {
        if (plain.has(m) && traced.has(m)) slowdown.push_back(traced.value(m) / plain.value(m) - 1);
    }
    return slowdown.empty() ? 0.0 : 100.0 * median(slowdown);
}

double counter(metrics::Counter c) { return static_cast<double>(metrics::value(c)); }

/// The traced run: an untraced pass of the workload's own group (the
/// reference for the tracing overhead), then every group with the
/// library's counters and the benchmark's spans on, then the layer probes.
/// Spans and counters of the set-up are still in place on entry.
void traced_run(Fixture& fx, const Options& opts, Tally& tally, Metrics& layers) {
    layers.set("data.dataset_build_s", median(spans().durations_s("data.build_dataset")), "s");
    layers.set("compile.compile_ms", median(spans().durations_s("compile.compile")) * 1e3, "ms");
    const double setup_hits = counter(metrics::Counter::kCheckpointDiskHits);
    const double setup_misses = counter(metrics::Counter::kCheckpointMisses);

    Metrics plain;
    metrics::set_level(metrics::Level::kOff);
    setenv("AMSNET_TRACE", "off", 1);
    spans().set_enabled(false);
    run_native_group(fx, opts, tally, plain);

    metrics::set_level(metrics::Level::kCounters);
    setenv("AMSNET_TRACE", "counters", 1);
    metrics::reset();
    spans().clear();
    spans().set_enabled(true);
    Metrics traced;
    run_groups(fx, opts, tally, traced, [&] {
        // Per image pushed through the in-process inference paths.
        const double images = traced.value("ams_eval.images") + traced.value("serve.requests");
        layers.set("tensor.gemm_flops_per_image", counter(metrics::Counter::kGemmFlops) / images,
                   "count");
        layers.set("ams.injected_samples_per_image",
                   counter(metrics::Counter::kInjectedSamples) / images, "count");
        layers.set("runtime.parallel_regions_per_image",
                   counter(metrics::Counter::kParallelRegions) / images, "count");
    });
    layers.set("runtime.arena_hwm_bytes",
               static_cast<double>(metrics::gauge_value(metrics::Gauge::kArenaHighWaterBytes)),
               "bytes");
    layers.set("sweep.workers_spawned", counter(metrics::Counter::kSweepWorkersSpawned), "count");
    layers.set("train.checkpoint_disk_hits",
               setup_hits + counter(metrics::Counter::kCheckpointDiskHits) +
                   traced.value("sweep.worker_checkpoint_disk_hits"),
               "count");
    layers.set("train.checkpoint_misses",
               setup_misses + counter(metrics::Counter::kCheckpointMisses) +
                   traced.value("sweep.worker_checkpoint_misses"),
               "count");
    for (const char* name :
         {"serve.submit_us", "serve.queue_wait_p50_ms", "serve.batch_fill", "serve.batch_run_ms",
          "serve.max_queue_depth", "serve.generator_lateness_p99_ms", "sweep.points_completed"}) {
        layers.set(name, traced.value(name), "");
    }
    const auto span_ms = [](const char* name) { return median(spans().durations_s(name)) * 1e3; };
    const double batches_per_pass = static_cast<double>(
        (fx.data->val_images().dim(0) + config::kEvalBatch - 1) / config::kEvalBatch);
    layers.set("compile.plan_fp32_batch_ms", span_ms("compile.plan_fp32.run"), "ms");
    layers.set("compile.plan_int8_batch_ms", span_ms("compile.plan_int8.run"), "ms");
    layers.set("compile.arena_floats", static_cast<double>(fx.plan_fp32->arena_floats()), "count");
    layers.set("train.evaluate_batch_ms", span_ms("train.evaluate_top1") / batches_per_pass, "ms");
    layers.set("core.enob_point_s", spans().total_s("core.compute_enob_point"), "s");
    layers.set("sweep.replay_ms", span_ms("sweep.replay_run_dir"), "ms");
    layers.set("sweep.merge_ms", span_ms("sweep.merged_report_json"), "ms");
    layers.set("trace.uncovered_pct", 100.0 * spans().uncovered_share(), "%");
    layers.set("trace.overhead_pct", tracing_overhead_pct(opts, plain, traced), "%");
    run_layer_probes(fx, opts, tally, layers);
}

}  // namespace

int main(int argc, char** argv) {
    if (const int rc = sweep::maybe_worker_main(argc, argv); rc >= 0) return rc;
    const Options opts = parse(argc, argv);
    try {
        runtime::ThreadPool::set_global_threads(opts.cores);
        metrics::set_level(opts.trace ? metrics::Level::kCounters : metrics::Level::kOff);
        // Sweep workers inherit the level through the environment.
        setenv("AMSNET_TRACE", opts.trace ? "counters" : "off", 1);
        spans().set_enabled(opts.trace);
        std::cout << "# resolved: threads=" << runtime::ThreadPool::global().parallelism()
                  << " cores=" << opts.cores
                  << " simd=" << simd::level_name(simd::active_level())
                  << " gemm_int_env=" << gemm_int_mode_name(env_gemm_int_mode())
                  << " trace=" << metrics::level_name(metrics::level()) << "\n";

        // Set-up, several times; the last fixture is the one measured.
        std::vector<double> setup_s;
        std::unique_ptr<Fixture> fx;
        for (std::size_t rep = 0; rep < config::kSetupReps; ++rep) {
            if (fx) fs::remove_all(fx->dir);
            fx.reset();
            const Clock::time_point t = Clock::now();
            ScopedSpan span("phase.setup");
            fx = build_fixture(opts, opts.workdir + "/fixture-" + std::to_string(rep));
            setup_s.push_back(seconds_since(t));
        }

        Tally tally;
        Metrics measured;
        if (opts.trace) {
            traced_run(*fx, opts, tally, measured);
        } else {
            run_groups(*fx, opts, tally, measured, [] {});
            measured.set("setup_s", median(setup_s), "s");
            measured.set("peak_rss_mb", peak_rss_mb(sweep_workers(opts)), "MB");
        }
        check_eval(*fx, opts, tally);
        fs::remove_all(fx->dir);

        // Exactly the declared metrics, in declared order.
        Metrics out;
        for (const auto& [name, unit] : opts.trace ? kPerLayer : kEndToEnd) {
            if (measured.has(name)) {
                out.set(name, measured.value(name), unit);
            } else {
                tally.check(false, std::string("metric not measured: ") + name);
                out.set(name, 0.0, unit);
            }
        }
        std::cout << "{\"correct\": " << (tally.correct ? "true" : "false")
                  << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
                  << ", \"metrics\": " << out.json() << "}" << std::endl;
        return tally.correct && tally.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "amsnet_perfbench: " << e.what() << "\n";
        return 1;
    }
}
