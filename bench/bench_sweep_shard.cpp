// Sharded-sweep bench: what does the multi-process sweep orchestrator
// buy, and is it exactly right?
//
// Three campaigns over the same quick Fig. 8-style grid, each with its
// own run directory and its own checkpoint cache pre-seeded from one
// shared warm prerequisite cache (so no run cache-hits another run's
// point-level retrained states, and none pays for the shared fp32 ->
// quantized training):
//
//   * workers=1  — one worker process, one thread: the serial baseline;
//   * workers=4  — four worker processes, one thread each: the headline
//                  `speedup_4w` row (acceptance target >= 3x, enforced
//                  only when the host has >= 4 hardware threads — on
//                  fewer cores the ratio is physically meaningless and
//                  the gate records "skipped_few_cores", like
//                  bench_gemm_microbench's AVX2 gate);
//   * kill+resume — four workers with shard 1 SIGKILLed mid-grid, then
//                  resumed: exercises the crash-resume protocol end to
//                  end.
//
// The correctness gates are unconditional: all three campaigns must
// produce byte-identical merged reports. AMSNET_BENCH_QUICK=1 shrinks
// the grid for CI smoke runs. Artifact: BENCH_sweep.json.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench_common.hpp"
#include "core/bench_json.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "runtime/metrics.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"

using namespace ams;
namespace fs = std::filesystem;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

sweep::SweepGrid bench_grid(bool quick, const std::string& cache_dir) {
    sweep::SweepGrid grid;
    grid.backends = {vmac::BackendKind::kBitExact, vmac::BackendKind::kPerVmacNoise};
    grid.enobs = quick ? std::vector<double>{4.5, 6.5} : std::vector<double>{4.5, 5.5, 6.5, 7.5};
    grid.seeds = quick ? std::vector<std::uint64_t>{11} : std::vector<std::uint64_t>{11, 23};
    grid.base.dataset.classes = 6;
    grid.base.dataset.train_per_class = 32;
    grid.base.dataset.val_per_class = 12;
    grid.base.dataset.image_size = 12;
    grid.base.eval_passes = 3;
    grid.base.batch_size = 32;
    grid.base.fp32_train.epochs = 3;
    grid.base.fp32_train.batch_size = 32;
    grid.base.retrain.epochs = 2;
    grid.base.retrain.batch_size = 32;
    grid.base.cache_dir = cache_dir;
    return grid;
}

void seed_cache_from(const std::string& warm_dir, const std::string& cache_dir) {
    fs::create_directories(cache_dir);
    for (const auto& entry : fs::directory_iterator(warm_dir)) {
        fs::copy_file(entry.path(), fs::path(cache_dir) / entry.path().filename(),
                      fs::copy_options::overwrite_existing);
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    if (const int rc = sweep::maybe_worker_main(argc, argv); rc >= 0) return rc;

    core::print_banner(std::cout, "Sharded sweep: multi-process fleet vs one worker",
                       "infrastructure (no paper figure)");
    if (!runtime::metrics::counters_enabled()) {
        runtime::metrics::set_level(runtime::metrics::Level::kCounters);
    }

    const bool quick = bench::quick();
    const std::string scratch =
        (fs::temp_directory_path() / ("amsnet-bench-sweep-" + std::to_string(getpid())))
            .string();
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    const std::string warm_cache = scratch + "/warm-cache";

    // Warm the shared fp32 -> quantized prerequisites once; every timed
    // campaign starts from a copy, so runs differ only in point work.
    {
        sweep::SweepGrid grid = bench_grid(quick, warm_cache);
        for (std::uint64_t seed : grid.seeds) {
            core::ExperimentEnv env(grid.options_for_seed(seed));
            (void)env.quantized_state(grid.bits_w, grid.bits_x);
        }
    }

    struct Campaign {
        std::string name;
        std::size_t workers = 1;
        double seconds = 0.0;
        sweep::SweepOutcome outcome;
        std::string report;
    };
    const auto run_campaign = [&](const std::string& name, std::size_t workers, int kill_shard,
                                  bool resume_after_kill) {
        Campaign c;
        c.name = name;
        c.workers = workers;
        const std::string run_dir = scratch + "/" + name;
        const std::string cache_dir = run_dir + "-cache";
        seed_cache_from(warm_cache, cache_dir);
        sweep::SweepGrid grid = bench_grid(quick, cache_dir);
        sweep::CoordinatorOptions options;
        options.run_dir = run_dir;
        options.workers = workers;
        options.threads_per_worker = 1;
        options.kill_shard = kill_shard;
        options.kill_after_points = 1;
        const auto start = std::chrono::steady_clock::now();
        c.outcome = sweep::run_sweep(grid, options);
        if (resume_after_kill && !c.outcome.complete) {
            options.kill_shard = -1;
            const sweep::SweepOutcome resumed = sweep::run_sweep(grid, options);
            c.outcome.computed += resumed.computed;
            c.outcome.stolen += resumed.stolen;
            c.outcome.replayed = resumed.replayed;  // survivors of the kill
            c.outcome.complete = resumed.complete;
            c.outcome.report_path = resumed.report_path;
        }
        c.seconds = seconds_since(start);
        if (!c.outcome.complete) {
            throw std::runtime_error("campaign " + name + " did not complete");
        }
        c.report = read_file(c.outcome.report_path);
        return c;
    };

    const Campaign serial = run_campaign("w1", 1, -1, false);
    const Campaign fleet = run_campaign("w4", 4, -1, false);
    // The killed shard must hold more than one point so the SIGKILL
    // deterministically leaves pending work: 2 workers in quick mode
    // (4-point grid), 4 in full (16-point grid).
    const Campaign resumed = run_campaign("kill-resume", quick ? 2 : 4, 1, true);

    const double speedup = serial.seconds / fleet.seconds;
    const unsigned cores = std::thread::hardware_concurrency();
    const bool enough_cores = cores >= 4;
    const bool speedup_ok = !enough_cores || speedup >= 3.0;
    const bool fleet_identical = fleet.report == serial.report;
    const bool resume_identical = resumed.report == serial.report;
    const bool resume_exercised = resumed.outcome.replayed > 0;

    core::Table table({"campaign", "seconds", "points", "replayed", "stolen"});
    for (const Campaign* c : {&serial, &fleet, &resumed}) {
        table.add_row({c->name, core::fmt_fixed(c->seconds, 2),
                       std::to_string(c->outcome.total), std::to_string(c->outcome.replayed),
                       std::to_string(c->outcome.stolen)});
    }
    table.print(std::cout);
    std::cout << "\n4-worker speedup vs 1 worker: " << core::fmt_fixed(speedup, 2)
              << "x (target >= 3x, " << cores << " hardware thread(s)): "
              << (enough_cores ? (speedup >= 3.0 ? "yes" : "NO") : "skipped_few_cores") << "\n";
    std::cout << "4-worker merged report byte-identical: " << (fleet_identical ? "yes" : "NO")
              << "\n";
    std::cout << "kill+resume merged report byte-identical: "
              << (resume_identical ? "yes" : "NO") << " (replayed "
              << resumed.outcome.replayed << ", stolen " << resumed.outcome.stolen << ")\n";

    core::BenchReport bench("sweep");
    bench.record_runtime_env();
    bench.config().set("quick", quick);
    bench.config().set("points", static_cast<std::uint64_t>(serial.outcome.total));
    bench.config().set("hardware_threads", static_cast<std::uint64_t>(cores));
    bench.config().set("threads_per_worker", static_cast<std::uint64_t>(1));
    bench.config().set("speedup_4w", speedup);
    bench.config().set("speedup_gate",
                       enough_cores ? (speedup >= 3.0 ? "pass" : "fail")
                                    : "skipped_few_cores");
    bench.config().set("merge_identical_4w", fleet_identical);
    bench.config().set("merge_identical_kill_resume", resume_identical);
    bench.config().set("resume_replayed",
                       static_cast<std::uint64_t>(resumed.outcome.replayed));
    bench.config().set("resume_stolen", static_cast<std::uint64_t>(resumed.outcome.stolen));
    for (const Campaign* c : {&serial, &fleet, &resumed}) {
        core::BenchFields& row = bench.add_row();
        row.set("campaign", c->name);
        row.set("seconds", c->seconds);
        row.set("workers", static_cast<std::uint64_t>(c->workers));
        row.set("points", static_cast<std::uint64_t>(c->outcome.total));
        row.set("replayed", static_cast<std::uint64_t>(c->outcome.replayed));
        row.set("stolen", static_cast<std::uint64_t>(c->outcome.stolen));
        row.set("points_per_s", static_cast<double>(c->outcome.total) / c->seconds);
    }
    bench.capture_runtime_metrics();
    std::cout << "Artifact written to " << bench.write_artifact() << "\n";

    fs::remove_all(scratch);
    return speedup_ok && fleet_identical && resume_identical && resume_exercised ? 0 : 1;
}
