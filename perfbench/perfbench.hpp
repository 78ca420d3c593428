// Shared pieces of the canonical amsnet benchmark (perfbench/).
//
// One binary runs three workloads against the library's public entry
// points. Every run reports every end-to-end metric, so every run sets up
// the full fixture (dataset, models, compiled plans, sweep prerequisites)
// and runs all three phase groups: the workload named on the command line
// gets the measuring budget (--seconds), the other two groups run at their
// minimum size.
//
//   ams_eval  train::evaluate_top1, then the same AMS-on model as a
//             compiled fp32 plan and as a compiled int8 plan;
//   serve     an open-loop Poisson stream at two fixed rates against
//             serve::InferenceServer (AMS off, deterministic);
//   sweep     cold Fig. 8-style campaigns through sweep::run_sweep.
//
// The benchmark records its own spans around each call into a library
// module (SpanLog below); the library's runtime::metrics counters are
// switched on only in the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "runtime/eval_context.hpp"
#include "sweep/grid.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
}

/// Median of a non-empty sample (copied).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample (copied).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// splitmix64: the benchmark's one generator for seeded inputs.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

// ----- spans -----------------------------------------------------------

/// Spans the benchmark records around its own calls into the library.
/// Recorded only from the main thread; kept in memory until the run ends.
class SpanLog {
public:
    struct Span {
        const char* name = "";
        int parent = -1;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };

    void set_enabled(bool enabled) { enabled_ = enabled; }

    /// Opens a span under the innermost open one; -1 when disabled.
    int begin(const char* name);
    void end(int id);
    void clear();

    /// Summed duration (s) of every span with this name.
    [[nodiscard]] double total_s(const std::string& name) const;
    /// Durations (s) of every span with this name.
    [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;
    /// Share of the summed duration of root spans (the phase sections)
    /// that none of their direct children covers.
    [[nodiscard]] double uncovered_share() const;

private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// The process's span log.
SpanLog& spans();

class ScopedSpan {
public:
    explicit ScopedSpan(const char* name) : id_(spans().begin(name)) {}
    ~ScopedSpan() { spans().end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    int id_;
};

// ----- results ----------------------------------------------------------

/// Attempts, failures and correctness checks of one run.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    /// Counts one correctness check; a failure is reported on stderr.
    void check(bool ok, const std::string& what);
    /// Counts one operation that either succeeded or failed.
    void attempt(bool ok, const std::string& what);
};

/// Named metrics in output order.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] bool has(const std::string& name) const;
    [[nodiscard]] double value(const std::string& name) const;
    /// {"name": {"value": v, "unit": "u"}, ...}
    [[nodiscard]] std::string json() const;

private:
    struct Entry {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

// ----- run configuration and fixture -----------------------------------

enum class Workload { kAmsEval, kServe, kSweep };

struct Options {
    Workload workload = Workload::kAmsEval;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;   ///< per-invocation scratch directory (exists)
    std::size_t cores = 1; ///< processors this run may use
};

/// Fixed configuration of the benchmark (one place to read the sizes).
namespace config {
inline constexpr std::size_t kClasses = 10;
inline constexpr std::size_t kImageSize = 16;
inline constexpr std::size_t kValPerClass = 32;  ///< 320 images = 5 batches
inline constexpr std::size_t kEvalBatch = 64;
inline constexpr double kEnob = 6.0;             ///< AMS point of ams_eval
inline constexpr std::size_t kNmult = 8;
inline constexpr std::size_t kBits = 8;
inline constexpr std::size_t kSetupReps = 3;
}  // namespace config

/// Everything a run sets up before it measures.
struct Fixture {
    std::unique_ptr<ams::data::SyntheticImageNet> data;
    std::unique_ptr<ams::models::ResNet> ams_model;    ///< 8b, lumped-Gaussian AMS on
    std::unique_ptr<ams::models::ResNet> serve_model;  ///< 8b, AMS off
    std::unique_ptr<ams::compile::ExecutionPlan> plan_fp32;
    std::unique_ptr<ams::compile::ExecutionPlan> plan_int8;
    ams::runtime::EvalContext ctx;  ///< arenas of the plan phases
    ams::sweep::SweepGrid grid;     ///< base.cache_dir = warm prerequisite cache
    std::string dir;                ///< fixture-owned scratch
};

/// Builds the fixture under `dir` (created). Deterministic in opts.seed.
[[nodiscard]] std::unique_ptr<Fixture> build_fixture(const Options& opts, const std::string& dir);

/// The AMS-on model of the fixture, rebuilt from the same seed (for the
/// repeatability check).
[[nodiscard]] std::unique_ptr<ams::models::ResNet> make_ams_model(const Options& opts,
                                                                  float input_max_abs);

// ----- phase groups -----------------------------------------------------

/// Run-time of one group: `seconds` of measuring when it is the
/// workload's own group, else its minimum size.
struct Budget {
    double seconds = 0.0;
    bool native = false;
};

void run_eval_phase(Fixture& fx, const Budget& budget, Tally& tally, Metrics& out);
void check_eval(Fixture& fx, const Options& opts, Tally& tally);

void run_serve_phase(Fixture& fx, const Options& opts, const Budget& budget, Tally& tally,
                     Metrics& out);

void run_sweep_phase(Fixture& fx, const Options& opts, const Budget& budget, Tally& tally,
                     Metrics& out);

/// Worker processes of a sweep campaign, one thread each: at most 4 (the
/// grid's point count) and never more than the cores.
[[nodiscard]] inline std::size_t sweep_workers(const Options& opts) {
    return std::min<std::size_t>(4, opts.cores);
}

/// Layer microbenchmarks of the traced run (gemm, int8 gemm, encode,
/// injection, forward at batch 1 and 8, one retrain batch, checkpoint
/// save/load).
void run_layer_probes(Fixture& fx, const Options& opts, Tally& tally, Metrics& out);

// ----- process helpers --------------------------------------------------

/// Peak resident set of this process plus, when sweep workers ran, the
/// largest worker's peak times the concurrent worker count (MB).
[[nodiscard]] double peak_rss_mb(std::size_t concurrent_children);

/// Copies every regular file of `from` into `to` (created).
void copy_dir_files(const std::string& from, const std::string& to);

}  // namespace perfbench
