#include "runtime/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ams::runtime::metrics {

namespace detail {

std::atomic<bool> g_counters_on{false};
std::atomic<bool> g_spans_on{false};
std::atomic<std::uint64_t> g_counters[kCounterCount]{};
std::atomic<std::uint64_t> g_gauges[kGaugeCount]{};

}  // namespace detail

namespace {

std::atomic<int> g_level{-1};  // -1: not yet resolved from the environment

void apply(Level level) {
    detail::g_counters_on.store(level != Level::kOff, std::memory_order_relaxed);
    detail::g_spans_on.store(level == Level::kFull, std::memory_order_relaxed);
    g_level.store(static_cast<int>(level), std::memory_order_release);
}

/// Registers the AMSNET_METRICS_DUMP atexit exporter exactly once. Done
/// from level() — the first metrics touch of any instrumented process —
/// so benches and the server get the exit snapshot without calling
/// anything themselves.
void register_exit_dump() {
    static std::once_flag once;
    std::call_once(once, [] {
        if (std::getenv("AMSNET_METRICS_DUMP") != nullptr) {
            std::atexit([] { (void)dump_snapshot_if_configured(); });
        }
    });
}

}  // namespace

Level parse_level(const char* text) {
    if (text == nullptr) return Level::kOff;
    const std::string value(text);
    if (value == "counters") return Level::kCounters;
    if (value == "full") return Level::kFull;
    return Level::kOff;
}

const char* level_name(Level level) {
    switch (level) {
        case Level::kOff: return "off";
        case Level::kCounters: return "counters";
        case Level::kFull: return "full";
    }
    return "off";
}

Level level() {
    const int cached = g_level.load(std::memory_order_acquire);
    if (cached >= 0) return static_cast<Level>(cached);
    register_exit_dump();
    const Level env = parse_level(std::getenv("AMSNET_TRACE"));
    apply(env);
    return env;
}

void set_level(Level level) {
    apply(level);
}

std::uint64_t value(Counter counter) {
    return detail::g_counters[static_cast<int>(counter)].load(std::memory_order_relaxed);
}

std::uint64_t gauge_value(Gauge gauge) {
    return detail::g_gauges[static_cast<int>(gauge)].load(std::memory_order_relaxed);
}

void reset() {
    for (auto& c : detail::g_counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : detail::g_gauges) g.store(0, std::memory_order_relaxed);
}

const char* counter_name(Counter counter) {
    switch (counter) {
        case Counter::kGemmCalls: return "gemm_calls";
        case Counter::kGemmFlops: return "gemm_flops";
        case Counter::kGemmPackGrowths: return "gemm_pack_growths";
        case Counter::kGemmIntCalls: return "gemm_int_calls";
        case Counter::kRequantOps: return "requant_ops";
        case Counter::kParallelRegions: return "parallel_regions";
        case Counter::kParallelChunks: return "parallel_chunks";
        case Counter::kAdcConversionsBitExact: return "adc_conversions_bit_exact";
        case Counter::kAdcConversionsPerVmacNoise: return "adc_conversions_per_vmac_noise";
        case Counter::kAdcConversionsPartitioned: return "adc_conversions_partitioned";
        case Counter::kAdcConversionsDeltaSigma: return "adc_conversions_delta_sigma";
        case Counter::kAdcConversionsReferenceScaled:
            return "adc_conversions_reference_scaled";
        case Counter::kAdcConversionsBlockFp: return "adc_conversions_block_fp";
        case Counter::kVmacChunks: return "vmac_chunks";
        case Counter::kVmacOutputs: return "vmac_outputs";
        case Counter::kInjectedSamples: return "injected_samples";
        case Counter::kCheckpointDiskHits: return "checkpoint_disk_hits";
        case Counter::kCheckpointMemoHits: return "checkpoint_memo_hits";
        case Counter::kCheckpointMisses: return "checkpoint_misses";
        case Counter::kCheckpointCorruptRecovered: return "checkpoint_corrupt_recovered";
        case Counter::kEvalPasses: return "eval_passes";
        case Counter::kEvalBatches: return "eval_batches";
        case Counter::kServeRequests: return "serve_requests";
        case Counter::kServeBatches: return "serve_batches";
        case Counter::kServeBatchImages: return "serve_batch_images";
        case Counter::kServeQueueWaitNs: return "serve_queue_wait_ns";
        case Counter::kPlanCompiles: return "plan_compiles";
        case Counter::kPlanRuns: return "plan_runs";
        case Counter::kPlanLayersFused: return "plan_layers_fused";
        case Counter::kPlanIntermediatesEliminated: return "plan_intermediates_eliminated";
        case Counter::kPlanArenaBytesSaved: return "plan_arena_bytes_saved";
        case Counter::kSweepPointsCompleted: return "sweep_points_completed";
        case Counter::kSweepPointsSkipped: return "sweep_points_skipped";
        case Counter::kSweepPointsStolen: return "sweep_points_stolen";
        case Counter::kSweepWorkersSpawned: return "sweep_workers_spawned";
        case Counter::kVariationChunks: return "variation_chunks";
        case Counter::kVariationFieldSamples: return "variation_field_samples";
        case Counter::kCount: break;
    }
    return "unknown_counter";
}

const char* gauge_name(Gauge gauge) {
    switch (gauge) {
        case Gauge::kArenaHighWaterBytes: return "arena_high_water_bytes";
        case Gauge::kServeQueueDepthMax: return "serve_queue_depth_max";
        case Gauge::kCount: break;
    }
    return "unknown_gauge";
}

void write_metrics_json(std::ostream& os) {
    os << "{\n";
    for (int i = 0; i < detail::kCounterCount; ++i) {
        os << "  \"" << counter_name(static_cast<Counter>(i))
           << "\": " << value(static_cast<Counter>(i)) << ",\n";
    }
    for (int i = 0; i < detail::kGaugeCount; ++i) {
        os << "  \"" << gauge_name(static_cast<Gauge>(i))
           << "\": " << gauge_value(static_cast<Gauge>(i))
           << (i + 1 < detail::kGaugeCount ? ",\n" : "\n");
    }
    os << "}\n";
}

void write_metrics_csv(std::ostream& os) {
    os << "metric,value\n";
    for (int i = 0; i < detail::kCounterCount; ++i) {
        os << counter_name(static_cast<Counter>(i)) << ','
           << value(static_cast<Counter>(i)) << '\n';
    }
    for (int i = 0; i < detail::kGaugeCount; ++i) {
        os << gauge_name(static_cast<Gauge>(i)) << ','
           << gauge_value(static_cast<Gauge>(i)) << '\n';
    }
}

void write_metrics_file(const std::string& path) {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream out(path);
    if (!out) throw std::runtime_error("write_metrics_file: cannot open " + path);
    if (p.extension() == ".csv") {
        write_metrics_csv(out);
    } else {
        write_metrics_json(out);
    }
    if (!out) throw std::runtime_error("write_metrics_file: write failed for " + path);
}

bool dump_snapshot_if_configured() {
    const char* path = std::getenv("AMSNET_METRICS_DUMP");
    if (path == nullptr || path[0] == '\0') return false;
    try {
        write_metrics_file(path);
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "amsnet: AMSNET_METRICS_DUMP export failed: %s\n", e.what());
        return false;
    }
}

}  // namespace ams::runtime::metrics
