// Monotonic counters and max-gauges: the "what happened" half of the
// observability layer (runtime/trace.hpp is the "when" half).
//
// Every hot layer of the library reports what it does through a fixed,
// enum-indexed set of process-wide counters — ADC conversions per
// hardware backend, GEMM calls and FLOPs, pack-buffer growths, arena
// high-water marks, checkpoint-cache hits — so benches and tests read
// one uniform ledger instead of hand-rolling their own bookkeeping.
//
// Cost contract (the reason this is not a pluggable sink interface):
//   * AMSNET_TRACE=off      — every record call is one relaxed atomic
//     bool load and a predicted-not-taken branch; bench_trace_overhead
//     proves the GEMM hot loop pays < 1% for it.
//   * AMSNET_TRACE=counters — counter adds are single relaxed atomic
//     increments, gauges a CAS max loop. No locks, no allocation: the
//     planned zero-allocation inference path stays allocation-free with
//     counters on (tests/trace_test.cpp proves it).
//   * AMSNET_TRACE=full     — counters plus the scoped spans of
//     runtime/trace.hpp (which may allocate; never use in alloc tests).
//
// Numerics contract: no counter or gauge ever feeds back into computed
// values or RNG stream selection, so outputs are bit-identical at every
// level (noise streams stay position-keyed; see EXPERIMENTS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace ams::runtime::metrics {

/// Instrumentation level, resolved from AMSNET_TRACE on first use.
enum class Level : int {
    kOff = 0,       ///< record calls reduce to a load + branch
    kCounters = 1,  ///< counters/gauges active, spans compiled away
    kFull = 2,      ///< counters plus scoped spans (runtime/trace.hpp)
};

/// Parses "off" / "counters" / "full" (unknown values mean kOff).
[[nodiscard]] Level parse_level(const char* text);

/// Stable name of a level ("off" / "counters" / "full") — the inverse of
/// parse_level, used by benches recording their run environment.
[[nodiscard]] const char* level_name(Level level);

/// Current level. First call reads AMSNET_TRACE; later calls are a
/// relaxed atomic load.
[[nodiscard]] Level level();

/// Overrides the level (tests, benches). Does not clear accumulated
/// counters — call reset() for a fresh ledger.
void set_level(Level level);

/// The fixed counter taxonomy. Names (counter_name) are the stable
/// strings used by the exporters; add new counters at the end of a
/// group to keep exported files diffable.
enum class Counter : int {
    // GEMM entry points (tensor/gemm.cpp)
    kGemmCalls = 0,       ///< calls through any of the four fp32 entry points
    kGemmFlops,           ///< 2*M*K*N per call (fp32 and integer alike)
    kGemmPackGrowths,     ///< pack/transpose scratch buffer growths
    kGemmIntCalls,        ///< calls through the integer entry points (tensor/gemm_int.cpp)
    kRequantOps,          ///< int32 accumulators requantized back to a float grid

    // Parallel runtime (runtime/parallel_for.cpp)
    kParallelRegions,     ///< parallel_for regions dispatched to the pool
    kParallelChunks,      ///< chunks executed (serial fallback included)

    // ADC conversions per hardware backend (ams/vmac_backend.cpp) — the
    // source of truth the energy model's ConversionProfile is checked
    // against (tests/trace_test.cpp).
    kAdcConversionsBitExact,
    kAdcConversionsPerVmacNoise,
    kAdcConversionsPartitioned,
    kAdcConversionsDeltaSigma,
    kAdcConversionsReferenceScaled,
    kAdcConversionsBlockFp,
    kVmacChunks,          ///< accumulate() calls over all backends
    kVmacOutputs,         ///< output accumulators finished

    // Network-level error injection (ams/error_injector.cpp)
    kInjectedSamples,     ///< additive noise samples drawn

    // Checkpoint cache (train/checkpoint_cache.cpp)
    kCheckpointDiskHits,  ///< states served from an on-disk .amsckpt
    kCheckpointMemoHits,  ///< states served from the in-process memo
    kCheckpointMisses,    ///< states produced (trained) on demand
    kCheckpointCorruptRecovered,   ///< torn/corrupt entries recomputed, not propagated

    // Evaluation protocol (train/evaluate.cpp)
    kEvalPasses,          ///< full validation passes
    kEvalBatches,         ///< batches pushed through a model

    // Inference server (serve/server.cpp)
    kServeRequests,       ///< requests accepted by submit()
    kServeBatches,        ///< dynamic batches dispatched to an instance
    kServeBatchImages,    ///< images across all dispatched batches
    kServeQueueWaitNs,    ///< summed enqueue -> dequeue wait, nanoseconds

    // Graph compiler (compile/compiler.cpp)
    kPlanCompiles,                 ///< ExecutionPlans built
    kPlanRuns,                     ///< compiled-plan forward passes
    kPlanLayersFused,              ///< elementwise ops absorbed into step tails
    kPlanIntermediatesEliminated,  ///< per-layer tensors the plan never materializes
    kPlanArenaBytesSaved,          ///< per-layer buffer bytes minus plan block bytes

    // Sweep orchestration (sweep/coordinator.cpp, sweep/worker.cpp)
    kSweepPointsCompleted,  ///< grid points computed and journaled by this process
    kSweepPointsSkipped,    ///< points replayed from journals instead of recomputed
    kSweepPointsStolen,     ///< resumed points reassigned away from their original shard
    kSweepWorkersSpawned,   ///< worker processes forked by the coordinator

    // Device variability (ams/device_variation.cpp, ams/error_injector.cpp)
    kVariationChunks,        ///< chunks routed through a DeviceVariation decorator
    kVariationFieldSamples,  ///< outputs perturbed by the network-level chip field

    kCount
};

/// Max-tracking gauges.
enum class Gauge : int {
    kArenaHighWaterBytes = 0,  ///< largest single-arena high-water mark seen
    kServeQueueDepthMax,       ///< deepest request queue any server reached
    kCount
};

namespace detail {

inline constexpr int kCounterCount = static_cast<int>(Counter::kCount);
inline constexpr int kGaugeCount = static_cast<int>(Gauge::kCount);

/// The enabled flag lives alone so the hot-path check inlines to a
/// one-byte load; the level itself is colder state in metrics.cpp.
extern std::atomic<bool> g_counters_on;
extern std::atomic<bool> g_spans_on;
extern std::atomic<std::uint64_t> g_counters[kCounterCount];
extern std::atomic<std::uint64_t> g_gauges[kGaugeCount];

}  // namespace detail

/// True at kCounters or kFull.
[[nodiscard]] inline bool counters_enabled() {
    return detail::g_counters_on.load(std::memory_order_relaxed);
}

/// True only at kFull (spans may allocate; see runtime/trace.hpp).
[[nodiscard]] inline bool spans_enabled() {
    return detail::g_spans_on.load(std::memory_order_relaxed);
}

/// Adds `n` to `counter`. Off: a load and a branch.
inline void add(Counter counter, std::uint64_t n = 1) {
    if (!counters_enabled()) return;
    detail::g_counters[static_cast<int>(counter)].fetch_add(n, std::memory_order_relaxed);
}

/// Raises `gauge` to at least `value` (monotonic max).
inline void gauge_max(Gauge gauge, std::uint64_t value) {
    if (!counters_enabled()) return;
    std::atomic<std::uint64_t>& g = detail::g_gauges[static_cast<int>(gauge)];
    std::uint64_t seen = g.load(std::memory_order_relaxed);
    while (seen < value &&
           !g.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
}

/// Current value (readable at any level; counters simply stay 0 when off).
[[nodiscard]] std::uint64_t value(Counter counter);
[[nodiscard]] std::uint64_t gauge_value(Gauge gauge);

/// Zeroes every counter and gauge.
void reset();

/// Stable lower_snake_case export names.
[[nodiscard]] const char* counter_name(Counter counter);
[[nodiscard]] const char* gauge_name(Gauge gauge);

/// Flat snapshot exporters: one {"name": value} JSON object, or two-column
/// name,value CSV — the metrics.json / metrics.csv summary artifacts.
void write_metrics_json(std::ostream& os);
void write_metrics_csv(std::ostream& os);
/// Convenience: writes to `path` (".csv" suffix selects CSV, anything
/// else JSON), creating parent directories. Throws std::runtime_error on
/// I/O failure.
void write_metrics_file(const std::string& path);

/// AMSNET_METRICS_DUMP=<path>: when set, the current counter snapshot is
/// exported to <path> through write_metrics_file at process exit (the
/// atexit hook is registered the first time the metrics level is
/// resolved) and whenever this function is called explicitly — the
/// inference server calls it on shutdown so serving runs drop their
/// ledger without bespoke wiring. Returns true if a file was written.
/// Never throws: export failures are reported on stderr (the process is
/// usually past the point of recovering).
bool dump_snapshot_if_configured();

}  // namespace ams::runtime::metrics
