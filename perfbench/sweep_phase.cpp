// sweep: cold Fig. 8-style campaigns (2 backends x 2 ENOBs, one dataset
// seed) through sweep::run_sweep with fork+execve workers. Each campaign
// gets a fresh run directory and a cache holding only the fp32 ->
// quantized prerequisites trained at set-up, so every point retrains.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "perfbench.hpp"
#include "runtime/metrics.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"

namespace fs = std::filesystem;
using namespace ams;

namespace perfbench {

namespace {

/// Sum of one counter over the shard-*.metrics.json ledgers the workers
/// of `run_dir` wrote.
double worker_counter(const std::string& run_dir, runtime::metrics::Counter counter,
                      std::size_t shards) {
    const std::string key = std::string("\"") + runtime::metrics::counter_name(counter) + "\":";
    double total = 0.0;
    for (std::size_t shard = 0; shard < shards; ++shard) {
        std::ifstream in(sweep::metrics_path(run_dir, shard));
        std::stringstream text;
        text << in.rdbuf();
        const std::string s = text.str();
        const std::size_t at = s.find(key);
        if (at != std::string::npos) total += std::stod(s.substr(at + key.size()));
    }
    return total;
}

bool same_result(const train::EvalResult& a, const train::EvalResult& b) {
    return a.mean == b.mean && a.stddev == b.stddev && a.passes == b.passes;
}

}  // namespace

void run_sweep_phase(Fixture& fx, const Options& opts, const Budget& budget, Tally& tally,
                     Metrics& out) {
    ScopedSpan phase("phase.sweep");
    const std::size_t workers = sweep_workers(opts);
    const std::string root = fx.dir + "/sweep";
    std::vector<double> points_per_s;
    std::string last_run_dir;
    sweep::SweepGrid grid = fx.grid;
    double points_completed = 0.0;
    double disk_hits = 0.0;
    double misses = 0.0;
    const Clock::time_point start = Clock::now();
    while (points_per_s.empty() || (budget.native && seconds_since(start) < budget.seconds)) {
        const std::string tag = std::to_string(points_per_s.size());
        const std::string run_dir = root + "/run-" + tag;
        grid.base.cache_dir = root + "/cache-" + tag;
        copy_dir_files(fx.grid.base.cache_dir, grid.base.cache_dir);
        sweep::CoordinatorOptions co;
        co.run_dir = run_dir;
        co.workers = workers;
        co.threads_per_worker = 1;

        const Clock::time_point t = Clock::now();
        sweep::SweepOutcome outcome;
        try {
            ScopedSpan span("sweep.run_sweep");
            outcome = sweep::run_sweep(grid, co);
        } catch (const std::exception& e) {
            tally.attempt(false, std::string("run_sweep: ") + e.what());
            break;
        }
        const double seconds = seconds_since(t);
        const bool ok = outcome.complete && outcome.computed == outcome.total &&
                        outcome.workers_failed == 0;
        for (std::size_t i = 0; i < outcome.total; ++i) {
            tally.attempt(ok && i < outcome.computed, "sweep point incomplete");
        }
        tally.check(outcome.replayed == 0, "a cold campaign replayed journaled points");
        points_per_s.push_back(static_cast<double>(outcome.computed) / seconds);
        points_completed += static_cast<double>(outcome.computed);
        disk_hits += worker_counter(run_dir, runtime::metrics::Counter::kCheckpointDiskHits,
                                    workers);
        misses += worker_counter(run_dir, runtime::metrics::Counter::kCheckpointMisses, workers);
        if (!last_run_dir.empty()) fs::remove_all(last_run_dir);
        fs::remove_all(grid.base.cache_dir);
        last_run_dir = run_dir;
        if (!ok) break;
    }
    if (points_per_s.empty() || last_run_dir.empty()) return;
    out.set("points_per_s", median(points_per_s), "1/s");
    out.set("sweep.points_completed", points_completed, "count");
    out.set("sweep.worker_checkpoint_disk_hits", disk_hits, "count");
    out.set("sweep.worker_checkpoint_misses", misses, "count");

    // Replay and merge the last campaign, then recompute one of its points
    // in-process and compare it with the journal record.
    std::vector<sweep::PointRecord> records;
    {
        ScopedSpan span("sweep.replay_run_dir");
        records = sweep::replay_run_dir(last_run_dir);
    }
    try {
        ScopedSpan span("sweep.merged_report_json");
        const std::string report = sweep::merged_report_json(fx.grid, records);
        tally.check(!report.empty(), "empty merged sweep report");
    } catch (const std::exception& e) {
        tally.check(false, std::string("merged_report_json: ") + e.what());
    }
    const std::vector<sweep::WorkItem> items = sweep::enumerate_grid(fx.grid);
    tally.check(records.size() == items.size(), "journal record count != grid points");
    if (records.empty()) return;
    const sweep::PointRecord& rec = records[mix64(opts.seed) % records.size()];
    const sweep::WorkItem& item = items.at(rec.index);
    // A private copy of the prerequisites, so the retrained state this
    // writes never reaches the warm cache later campaigns start from.
    sweep::SweepGrid check_grid = fx.grid;
    check_grid.base.cache_dir = root + "/check-cache";
    copy_dir_files(fx.grid.base.cache_dir, check_grid.base.cache_dir);
    core::ExperimentEnv env(check_grid.options_for_seed(item.seed));
    const TensorMap quant = env.quantized_state(fx.grid.bits_w, fx.grid.bits_x);
    core::ExperimentEnv::EnobSweepPoint point;
    {
        ScopedSpan span("core.compute_enob_point");
        point = env.compute_enob_point(fx.grid.bits_w, fx.grid.bits_x, item.enob,
                                       fx.grid.sweep_options(item), quant);
    }
    tally.check(rec.point_id == item.point_id && point.enob == rec.point.enob &&
                    point.effective_enob == rec.point.effective_enob &&
                    same_result(point.eval_only, rec.point.eval_only) &&
                    same_result(point.retrained, rec.point.retrained),
                "in-process compute_enob_point differs from journal record " + rec.point_id);
    fs::remove_all(last_run_dir);
    fs::remove_all(check_grid.base.cache_dir);
}

}  // namespace perfbench
