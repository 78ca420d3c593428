// Chip-population (Monte-Carlo fleet) bench: device variability + drift
// through the sharded sweep orchestrator.
//
// One quick Fig. 4/5-style grid with the PR 10 variability axes switched
// on — a population of chips, each a frozen realization of static
// programming offsets (AMSNET_OFFSET_SIGMA-style amplitude) plus
// power-law conductance drift G(t) = G0 (t/t0)^-nu — swept at drift
// times {0, 64}. Three campaigns over the identical grid:
//
//   * workers=1   — serial baseline;
//   * workers=4   — multi-process fleet;
//   * kill+resume — a worker SIGKILLed mid-fleet, then resumed.
//
// Gates (all unconditional, exit-code enforced):
//   * all three merged reports byte-identical — chip realizations are
//     pure functions of (chip_seed, family, cell), so process count and
//     crash history cannot perturb them;
//   * at the max studied drift time, the population-mean retrained
//     accuracy >= the population-mean eval-only accuracy: STE robust
//     retraining recovers drift-induced loss.
//
// The artifact (BENCH_variation.json) records population mean/p5/p95
// accuracy per drift time — the error-bar data of a chip-population
// plot. AMSNET_BENCH_QUICK=1 shrinks the chip count for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>
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

sweep::SweepGrid fleet_grid(bool quick, const std::string& cache_dir) {
    sweep::SweepGrid grid;
    grid.backends = {vmac::BackendKind::kPerVmacNoise};
    grid.enobs = {6.5};
    grid.seeds = {11};
    grid.chips = quick ? std::vector<std::uint64_t>{1, 2, 3}
                       : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
    grid.drift_times = {0.0, 64.0};
    grid.variation.cell_offset_sigma = 0.05;
    grid.variation.drift_nu = 0.2;
    // Unlike bench_sweep_shard (whose gates are pure byte-identity),
    // the recovery gate needs a grid that actually learns: a few-class
    // dataset and real learning rates put accuracy well above chance,
    // so the drift-induced loss and its recovery are resolvable.
    grid.base.dataset.classes = 4;
    grid.base.dataset.train_per_class = quick ? 48 : 96;
    grid.base.dataset.val_per_class = 16;
    grid.base.dataset.image_size = 16;
    grid.base.eval_passes = 3;
    grid.base.batch_size = 32;
    grid.base.fp32_train.epochs = quick ? 6 : 10;
    grid.base.fp32_train.batch_size = 32;
    grid.base.fp32_train.sgd = {/*lr=*/0.05f, /*momentum=*/0.9f, /*weight_decay=*/5e-4f};
    grid.base.retrain.epochs = 3;
    grid.base.retrain.batch_size = 32;
    grid.base.retrain.sgd = {/*lr=*/0.01f, /*momentum=*/0.9f, /*weight_decay=*/0.0f};
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

// Linear-interpolated percentile of an unsorted sample, p in [0, 1].
double percentile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean_of(const std::vector<double>& values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

}  // namespace

int main(int argc, char** argv) {
    if (const int rc = sweep::maybe_worker_main(argc, argv); rc >= 0) return rc;

    core::print_banner(std::cout, "Chip-population fleet: device variability + drift",
                       "paper Figs. 4/5 under per-chip error families");
    if (!runtime::metrics::counters_enabled()) {
        runtime::metrics::set_level(runtime::metrics::Level::kCounters);
    }

    const bool quick = bench::quick();
    const std::string scratch =
        (fs::temp_directory_path() / ("amsnet-bench-variation-" + std::to_string(getpid())))
            .string();
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    const std::string warm_cache = scratch + "/warm-cache";

    // Warm the shared fp32 -> quantized prerequisites once; chips branch
    // off the quantized state, so this is the whole shared prefix.
    {
        sweep::SweepGrid grid = fleet_grid(quick, warm_cache);
        for (std::uint64_t seed : grid.seeds) {
            core::ExperimentEnv env(grid.options_for_seed(seed));
            (void)env.quantized_state(grid.bits_w, grid.bits_x);
        }
    }

    struct Campaign {
        std::string name;
        double seconds = 0.0;
        sweep::SweepOutcome outcome;
        std::string report;
        std::string run_dir;
    };
    const auto run_campaign = [&](const std::string& name, std::size_t workers, int kill_shard,
                                  bool resume_after_kill) {
        Campaign c;
        c.name = name;
        c.run_dir = scratch + "/" + name;
        const std::string cache_dir = c.run_dir + "-cache";
        seed_cache_from(warm_cache, cache_dir);
        sweep::SweepGrid grid = fleet_grid(quick, cache_dir);
        sweep::CoordinatorOptions options;
        options.run_dir = c.run_dir;
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
            c.outcome.replayed = resumed.replayed;
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
    const Campaign resumed = run_campaign("kill-resume", 2, 1, true);

    const bool fleet_identical = fleet.report == serial.report;
    const bool resume_identical = resumed.report == serial.report;
    const bool resume_exercised = resumed.outcome.replayed > 0;

    // Population statistics across the chip axis, per drift time, from
    // the serial campaign's journaled points (any campaign works — they
    // are byte-identical).
    sweep::SweepGrid grid = fleet_grid(quick, scratch + "/w1-cache");
    const std::vector<sweep::WorkItem> items = sweep::enumerate_grid(grid);
    std::map<double, std::vector<double>> eval_by_time, retrain_by_time;
    for (const sweep::PointRecord& record : sweep::replay_run_dir(serial.run_dir)) {
        const sweep::WorkItem& item = items.at(record.index);
        eval_by_time[item.drift_time].push_back(record.point.eval_only.mean);
        retrain_by_time[item.drift_time].push_back(record.point.retrained.mean);
    }
    const double max_time = grid.drift_times.back();
    const double eval_mean_at_max = mean_of(eval_by_time.at(max_time));
    const double retrain_mean_at_max = mean_of(retrain_by_time.at(max_time));
    const bool retrain_recovers = retrain_mean_at_max >= eval_mean_at_max;

    core::Table table({"drift_time", "eval_mean", "eval_p5", "eval_p95", "retrain_mean",
                       "retrain_p5", "retrain_p95"});
    for (const auto& [t, evals] : eval_by_time) {
        const std::vector<double>& retrains = retrain_by_time.at(t);
        table.add_row({core::fmt_fixed(t, 0), core::fmt_fixed(mean_of(evals), 4),
                       core::fmt_fixed(percentile(evals, 0.05), 4),
                       core::fmt_fixed(percentile(evals, 0.95), 4),
                       core::fmt_fixed(mean_of(retrains), 4),
                       core::fmt_fixed(percentile(retrains, 0.05), 4),
                       core::fmt_fixed(percentile(retrains, 0.95), 4)});
    }
    table.print(std::cout);
    std::cout << "\n4-worker merged report byte-identical: " << (fleet_identical ? "yes" : "NO")
              << "\n";
    std::cout << "kill+resume merged report byte-identical: "
              << (resume_identical ? "yes" : "NO") << " (replayed "
              << resumed.outcome.replayed << ", stolen " << resumed.outcome.stolen << ")\n";
    std::cout << "retraining recovers drift at t=" << core::fmt_fixed(max_time, 0) << ": "
              << (retrain_recovers ? "yes" : "NO") << " ("
              << core::fmt_fixed(retrain_mean_at_max, 4) << " vs "
              << core::fmt_fixed(eval_mean_at_max, 4) << " eval-only)\n";

    core::BenchReport bench("variation");
    bench.record_runtime_env();
    bench.config().set("quick", quick);
    bench.config().set("chips", static_cast<std::uint64_t>(grid.chips.size()));
    bench.config().set("variation", grid.variation.str());
    bench.config().set("points", static_cast<std::uint64_t>(serial.outcome.total));
    bench.config().set("merge_identical_4w", fleet_identical);
    bench.config().set("merge_identical_kill_resume", resume_identical);
    bench.config().set("resume_replayed",
                       static_cast<std::uint64_t>(resumed.outcome.replayed));
    bench.config().set("retrain_recovers_drift", retrain_recovers);
    bench.config().set("seconds_w1", serial.seconds);
    bench.config().set("seconds_w4", fleet.seconds);
    for (const auto& [t, evals] : eval_by_time) {
        const std::vector<double>& retrains = retrain_by_time.at(t);
        core::BenchFields& row = bench.add_row();
        row.set("drift_time", t);
        row.set("chips", static_cast<std::uint64_t>(evals.size()));
        row.set("eval_only_mean", mean_of(evals));
        row.set("eval_only_p5", percentile(evals, 0.05));
        row.set("eval_only_p95", percentile(evals, 0.95));
        row.set("retrained_mean", mean_of(retrains));
        row.set("retrained_p5", percentile(retrains, 0.05));
        row.set("retrained_p95", percentile(retrains, 0.95));
    }
    bench.capture_runtime_metrics();
    std::cout << "Artifact written to " << bench.write_artifact() << "\n";

    fs::remove_all(scratch);
    return fleet_identical && resume_identical && resume_exercised && retrain_recovers ? 0 : 1;
}
