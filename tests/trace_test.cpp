// Observability subsystem acceptance tests: span nesting/ordering across
// pool threads, counter aggregation, exporter schema goldens, the
// conversion-counter <-> ConversionProfile cross-check for all six VMAC
// backends, and the no-allocation guarantee for counters mode on the
// planned inference path. Global operator new is overridden in this
// binary (alloc_count_test pattern) so the allocation claim is measured,
// not assumed.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "ams/vmac_backend.hpp"
#include "ams/vmac_conv.hpp"
#include "compile/plan.hpp"
#include "core/experiment.hpp"
#include "models/resnet.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"
#include "scratch_dir.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (align < sizeof(void*)) align = sizeof(void*);
    if (posix_memalign(&p, align, size ? size : 1) != 0) return nullptr;
    return p;
}
}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ams {
namespace {

namespace metrics = runtime::metrics;
namespace trace = runtime::trace;

/// Restores AMSNET_TRACE level and clears counters/spans around a test.
class TraceSandbox {
public:
    explicit TraceSandbox(metrics::Level level) {
        metrics::reset();
        trace::clear();
        metrics::set_level(level);
    }
    ~TraceSandbox() {
        metrics::set_level(metrics::Level::kOff);
        metrics::reset();
        trace::clear();
    }
};

TEST(MetricsTest, ParseLevel) {
    EXPECT_EQ(metrics::parse_level(nullptr), metrics::Level::kOff);
    EXPECT_EQ(metrics::parse_level("off"), metrics::Level::kOff);
    EXPECT_EQ(metrics::parse_level("counters"), metrics::Level::kCounters);
    EXPECT_EQ(metrics::parse_level("full"), metrics::Level::kFull);
    EXPECT_EQ(metrics::parse_level("bogus"), metrics::Level::kOff);
}

TEST(MetricsTest, OffLevelRecordsNothing) {
    TraceSandbox sandbox(metrics::Level::kOff);
    metrics::add(metrics::Counter::kGemmCalls, 5);
    metrics::gauge_max(metrics::Gauge::kArenaHighWaterBytes, 100);
    EXPECT_EQ(metrics::value(metrics::Counter::kGemmCalls), 0u);
    EXPECT_EQ(metrics::gauge_value(metrics::Gauge::kArenaHighWaterBytes), 0u);
}

TEST(MetricsTest, CounterAggregationAcrossThreads) {
    TraceSandbox sandbox(metrics::Level::kCounters);
    constexpr int kThreads = 4;
    constexpr int kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kAddsPerThread; ++i) {
                metrics::add(metrics::Counter::kGemmCalls);
                metrics::add(metrics::Counter::kGemmFlops, 3);
                metrics::gauge_max(metrics::Gauge::kArenaHighWaterBytes,
                                   static_cast<std::uint64_t>(i));
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(metrics::value(metrics::Counter::kGemmCalls),
              static_cast<std::uint64_t>(kThreads * kAddsPerThread));
    EXPECT_EQ(metrics::value(metrics::Counter::kGemmFlops),
              static_cast<std::uint64_t>(3 * kThreads * kAddsPerThread));
    EXPECT_EQ(metrics::gauge_value(metrics::Gauge::kArenaHighWaterBytes),
              static_cast<std::uint64_t>(kAddsPerThread - 1));
}

TEST(MetricsTest, MetricsJsonGolden) {
    // Full-schema golden: renaming or reordering any counter is a breaking
    // change to the exported artifact and must show up here.
    TraceSandbox sandbox(metrics::Level::kCounters);
    metrics::add(metrics::Counter::kGemmCalls, 2);
    metrics::add(metrics::Counter::kGemmFlops, 768);
    metrics::add(metrics::Counter::kAdcConversionsBitExact, 9);
    metrics::gauge_max(metrics::Gauge::kArenaHighWaterBytes, 4096);
    std::ostringstream os;
    metrics::write_metrics_json(os);
    const char* expected =
        "{\n"
        "  \"gemm_calls\": 2,\n"
        "  \"gemm_flops\": 768,\n"
        "  \"gemm_pack_growths\": 0,\n"
        "  \"gemm_int_calls\": 0,\n"
        "  \"requant_ops\": 0,\n"
        "  \"parallel_regions\": 0,\n"
        "  \"parallel_chunks\": 0,\n"
        "  \"adc_conversions_bit_exact\": 9,\n"
        "  \"adc_conversions_per_vmac_noise\": 0,\n"
        "  \"adc_conversions_partitioned\": 0,\n"
        "  \"adc_conversions_delta_sigma\": 0,\n"
        "  \"adc_conversions_reference_scaled\": 0,\n"
        "  \"adc_conversions_block_fp\": 0,\n"
        "  \"vmac_chunks\": 0,\n"
        "  \"vmac_outputs\": 0,\n"
        "  \"injected_samples\": 0,\n"
        "  \"checkpoint_disk_hits\": 0,\n"
        "  \"checkpoint_memo_hits\": 0,\n"
        "  \"checkpoint_misses\": 0,\n"
        "  \"checkpoint_corrupt_recovered\": 0,\n"
        "  \"eval_passes\": 0,\n"
        "  \"eval_batches\": 0,\n"
        "  \"serve_requests\": 0,\n"
        "  \"serve_batches\": 0,\n"
        "  \"serve_batch_images\": 0,\n"
        "  \"serve_queue_wait_ns\": 0,\n"
        "  \"plan_compiles\": 0,\n"
        "  \"plan_runs\": 0,\n"
        "  \"plan_layers_fused\": 0,\n"
        "  \"plan_intermediates_eliminated\": 0,\n"
        "  \"plan_arena_bytes_saved\": 0,\n"
        "  \"sweep_points_completed\": 0,\n"
        "  \"sweep_points_skipped\": 0,\n"
        "  \"sweep_points_stolen\": 0,\n"
        "  \"sweep_workers_spawned\": 0,\n"
        "  \"variation_chunks\": 0,\n"
        "  \"variation_field_samples\": 0,\n"
        "  \"arena_high_water_bytes\": 4096,\n"
        "  \"serve_queue_depth_max\": 0\n"
        "}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(MetricsTest, MetricsCsvGolden) {
    TraceSandbox sandbox(metrics::Level::kCounters);
    metrics::add(metrics::Counter::kEvalPasses, 7);
    std::ostringstream os;
    metrics::write_metrics_csv(os);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("metric,value\n", 0), 0u);
    EXPECT_NE(text.find("eval_passes,7\n"), std::string::npos);
    EXPECT_NE(text.find("arena_high_water_bytes,0\n"), std::string::npos);
}

TEST(TraceTest, SpanNestingAndOrderingAcrossThreads) {
    TraceSandbox sandbox(metrics::Level::kFull);
    {
        trace::Span outer("outer");
        {
            trace::Span inner("inner", "k=v");
        }
    }
    std::thread other([] {
        trace::set_thread_label("other-thread");
        trace::Span span("other");
    });
    other.join();

    const std::vector<trace::Event> events = trace::collect();
    ASSERT_EQ(events.size(), 3u);

    // Sorted by (thread, start): within the main thread the enclosing span
    // precedes its child, and the child nests strictly inside it.
    const trace::Event* outer = nullptr;
    const trace::Event* inner = nullptr;
    const trace::Event* foreign = nullptr;
    for (const trace::Event& e : events) {
        if (std::string(e.name) == "outer") outer = &e;
        if (std::string(e.name) == "inner") inner = &e;
        if (std::string(e.name) == "other") foreign = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(foreign, nullptr);
    EXPECT_EQ(outer->thread_index, inner->thread_index);
    EXPECT_NE(outer->thread_index, foreign->thread_index);
    EXPECT_EQ(outer->depth, 0u);
    EXPECT_EQ(inner->depth, 1u);
    EXPECT_LE(outer->start_ns, inner->start_ns);
    EXPECT_GE(outer->end_ns, inner->end_ns);
    EXPECT_STREQ(inner->tag, "k=v");
    // collect() ordering: enclosing-before-child within a thread.
    EXPECT_LT(outer - events.data(), inner - events.data());

    // A second collect is empty (the first drained the buffers).
    EXPECT_TRUE(trace::collect().empty());
}

TEST(TraceTest, SpansInertWhenNotFull) {
    TraceSandbox sandbox(metrics::Level::kCounters);
    {
        trace::Span span("should-not-record");
    }
    EXPECT_TRUE(trace::collect().empty());
}

TEST(TraceTest, ParallelForChunksAreSpannedAndCounted) {
    TraceSandbox sandbox(metrics::Level::kFull);
    runtime::ThreadPool::set_global_threads(4);
    std::atomic<int> work{0};
    runtime::parallel_for(0, 64, 4, [&](std::size_t b, std::size_t e) {
        work.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
    });
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
    EXPECT_EQ(work.load(), 64);
    EXPECT_EQ(metrics::value(metrics::Counter::kParallelChunks), 16u);
    EXPECT_EQ(metrics::value(metrics::Counter::kParallelRegions), 1u);

    std::size_t chunk_spans = 0;
    for (const trace::Event& e : trace::collect()) {
        if (std::string(e.name) == "parallel_for.chunk") ++chunk_spans;
    }
    EXPECT_EQ(chunk_spans, 16u);
}

TEST(TraceTest, ChromeTraceExporterSchema) {
    TraceSandbox sandbox(metrics::Level::kFull);
    trace::set_thread_label("main");
    {
        trace::Span span("unit-span", "shape=2x3");
    }
    std::ostringstream os;
    trace::write_chrome_trace(os, trace::collect());
    const std::string text = os.str();

    // Chrome Trace Event Format essentials: a traceEvents array of "X"
    // complete events plus "M" thread_name metadata records.
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0), 0u);
    EXPECT_NE(text.find("\"name\": \"thread_name\", \"ph\": \"M\""), std::string::npos);
    EXPECT_NE(text.find("\"args\": {\"name\": \"main\"}"), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"unit-span\", \"cat\": \"amsnet\", \"ph\": \"X\", \"ts\": "),
              std::string::npos);
    EXPECT_NE(text.find("\"args\": {\"tag\": \"shape=2x3\"}"), std::string::npos);
    EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
}

/// Expected ADC conversions for a conv forward on `backend`:
/// outputs * sum_i(per_chunk_i * chunks + per_output_i), straight from the
/// backend's ConversionProfile — the same profile the energy model prices.
std::uint64_t expected_conversions(const vmac::VmacBackend& backend, std::size_t outputs,
                                   std::size_t chunks_per_output) {
    double per_output = 0.0;
    for (const vmac::ConversionCost& cost : backend.conversion_profile()) {
        per_output += cost.per_chunk * static_cast<double>(chunks_per_output) + cost.per_output;
    }
    return static_cast<std::uint64_t>(
        std::llround(per_output * static_cast<double>(outputs)));
}

struct BackendCase {
    vmac::BackendOptions options;
    metrics::Counter counter;
};

std::vector<BackendCase> conversion_cases() {
    std::vector<BackendCase> cases;
    {
        vmac::BackendOptions o;
        o.kind = vmac::BackendKind::kBitExact;
        cases.push_back({o, metrics::Counter::kAdcConversionsBitExact});
    }
    {
        vmac::BackendOptions o;
        o.kind = vmac::BackendKind::kPerVmacNoise;
        cases.push_back({o, metrics::Counter::kAdcConversionsPerVmacNoise});
    }
    {
        vmac::BackendOptions o;
        o.kind = vmac::BackendKind::kPartitioned;
        o.partition.nw = 2;
        o.partition.nx = 2;
        o.partition.enob_partial = 5.0;
        cases.push_back({o, metrics::Counter::kAdcConversionsPartitioned});
    }
    {
        vmac::BackendOptions o;
        o.kind = vmac::BackendKind::kDeltaSigma;
        cases.push_back({o, metrics::Counter::kAdcConversionsDeltaSigma});
    }
    {
        vmac::BackendOptions o;
        o.kind = vmac::BackendKind::kReferenceScaled;
        o.reference_scale = 0.5;
        cases.push_back({o, metrics::Counter::kAdcConversionsReferenceScaled});
    }
    {
        vmac::BackendOptions o;
        o.kind = vmac::BackendKind::kBlockFp;
        cases.push_back({o, metrics::Counter::kAdcConversionsBlockFp});
    }
    return cases;
}

TEST(TraceTest, ConversionCountersMatchConversionProfileForAllBackends) {
    // The counters recorded by the datapaths must agree exactly with the
    // ConversionProfile-derived counts the energy model uses — the two
    // views of "how many ADC conversions did this layer cost" may never
    // drift apart.
    vmac::VmacConfig cfg;
    cfg.enob = 6.0;
    cfg.nmult = 8;
    cfg.bits_w = 9;  // 8 magnitude bits chunk evenly into the 2x2 split
    cfg.bits_x = 9;

    Rng rng(11);
    Tensor w(Shape{3, 2, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    Tensor x(Shape{2, 2, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);

    const std::size_t patch = 2 * 3 * 3;
    const std::size_t chunks = (patch + cfg.nmult - 1) / cfg.nmult;

    for (const BackendCase& c : conversion_cases()) {
        TraceSandbox sandbox(metrics::Level::kCounters);
        vmac::VmacConv2d conv(w, /*stride=*/1, /*padding=*/1, cfg, {}, c.options, Rng(7));
        Tensor out = conv.forward(x);
        const std::size_t outputs = out.size();

        const auto reference = vmac::make_backend(cfg, {}, c.options);
        const std::uint64_t expected = expected_conversions(*reference, outputs, chunks);
        EXPECT_EQ(metrics::value(c.counter), expected)
            << "backend " << vmac::backend_kind_name(c.options.kind);
        EXPECT_EQ(metrics::value(metrics::Counter::kVmacOutputs), outputs);
        EXPECT_EQ(metrics::value(metrics::Counter::kVmacChunks),
                  static_cast<std::uint64_t>(outputs * chunks));

        // Only this backend's conversion counter moved.
        for (const BackendCase& other : conversion_cases()) {
            if (other.counter != c.counter) {
                EXPECT_EQ(metrics::value(other.counter), 0u)
                    << "cross-talk from " << vmac::backend_kind_name(c.options.kind) << " into "
                    << vmac::backend_kind_name(other.options.kind);
            }
        }
    }
}

TEST(TraceTest, CountersModeInferenceIsAllocationFree) {
    // The counters level must preserve the planned inference path's
    // zero-allocation guarantee (alloc_count_test holds the same claim
    // for AMSNET_TRACE=off).
    TraceSandbox sandbox(metrics::Level::kCounters);
    runtime::ThreadPool::set_global_threads(1);

    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;
    common.vmac.enob = 5.0;
    common.vmac.nmult = 8;
    models::ResNet model(models::tiny_resnet_config(common));
    model.set_training(false);
    Rng rng(3);
    Tensor x(Shape{4, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);

    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(model, x.shape());
    for (int i = 0; i < 2; ++i) {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        (void)plan.run(x, ctx);
        ctx.rewind(cp);
    }

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        Tensor out = plan.run(x, ctx);
        ctx.rewind(cp);
    }
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(allocs, 0u) << "counters mode must not allocate on the planned path";
    EXPECT_GT(metrics::value(metrics::Counter::kGemmCalls), 0u);
    EXPECT_GT(metrics::value(metrics::Counter::kInjectedSamples), 0u);
}

TEST(TraceTest, FourThreadSweepChromeTraceExports) {
    // End-to-end: a 4-thread ams_enob_sweep under full tracing exports a
    // chrome://tracing-loadable file with the sweep's phase spans on it.
    namespace fs = std::filesystem;
    const std::string dir = testutil::scratch_dir("amsnet_trace_sweep").string();
    fs::remove_all(dir);

    core::ExperimentOptions o;
    o.dataset.classes = 4;
    o.dataset.train_per_class = 16;
    o.dataset.val_per_class = 8;
    o.dataset.image_size = 8;
    o.dataset.seed = 3;
    o.eval_passes = 1;
    o.batch_size = 16;
    o.fp32_train.epochs = 1;
    o.fp32_train.batch_size = 16;
    o.fp32_train.patience = 0;
    o.retrain.epochs = 1;
    o.retrain.batch_size = 16;
    o.retrain.patience = 0;
    o.cache_dir = dir;

    TraceSandbox sandbox(metrics::Level::kFull);
    runtime::ThreadPool::set_global_threads(4);
    core::ExperimentEnv env(o);
    const auto points = env.ams_enob_sweep(8, 8, {4.0, 6.0}, {.retrain = false});
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
    ASSERT_EQ(points.size(), 2u);

    const std::string path = dir + "/sweep_trace.json";
    const std::size_t n_events = trace::write_chrome_trace_file(path);
    EXPECT_GT(n_events, 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0), 0u);
    EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
    EXPECT_NE(text.find("\"name\": \"ams_enob_sweep\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"ams_enob_sweep.point\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"evaluate.pass\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"thread_name\", \"ph\": \"M\""), std::string::npos);
    // The pool's workers label their tracks.
    EXPECT_NE(text.find("\"args\": {\"name\": \"worker-0\"}"), std::string::npos);

    // Counters rode along with full tracing: the sweep evaluated.
    EXPECT_GT(metrics::value(metrics::Counter::kEvalPasses), 0u);
    EXPECT_GT(metrics::value(metrics::Counter::kCheckpointMisses), 0u);

    fs::remove_all(dir);
}

}  // namespace
}  // namespace ams
