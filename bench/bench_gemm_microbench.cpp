// GEMM kernel microbench: GFLOP/s of the scalar blocked arm vs the
// AVX2/FMA microkernel arm at eval-shaped sizes (im2col-lowered conv
// GEMMs and the classifier gemm_bt), plus GOP/s of the packed int8 code
// kernel of the integer numeric domain (DESIGN.md §14) per arm.
// AMSNET_BENCH_QUICK=1 shrinks repetition counts. End-to-end plan
// throughput (fp32 and int8) is perfbench's: eval_ips, plan_fp32_ips and
// plan_int8_ips.
//
// Writes a machine-readable artifact, BENCH_gemm.json (shared
// amsnet-bench-v1 schema; see core/bench_json.hpp), alongside the usual
// printed table so CI and later sessions can diff kernel performance
// without parsing stdout. On hosts without AVX2/FMA the vector rows are
// omitted and the JSON records "avx2_available": false.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bench_json.hpp"
#include "core/report.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int.hpp"
#include "tensor/tensor.hpp"

using namespace ams;

namespace {

struct GemmShape {
    const char* tag;  // which layer this GEMM is lowered from
    std::size_t m, k, n;
};

// Conv layers lower to (Cout x patch) * (patch x out_spatial); the
// classifier runs (batch x in) * (in x out) through gemm_bt. Shapes span
// the tiny-resnet eval sizes up to ResNet-18-on-32x32-class layers.
constexpr GemmShape kShapes[] = {
    {"conv3x3_16c_8x8", 16, 144, 64},
    {"conv3x3_64c_32x32", 64, 576, 1024},
    {"conv3x3_128c_16x16", 128, 1152, 256},
    {"conv3x3_256c_8x8", 256, 2304, 64},
    {"square_384", 384, 512, 384},
};

struct GemmRow {
    GemmShape shape;
    double scalar_gflops = 0.0;
    double avx2_gflops = 0.0;
};

/// Per-shape GOP/s of the packed integer code kernel (gemm_s8u8), per
/// arm. One "op" is one code multiply-add, so the figures are directly
/// comparable with the fp32 GFLOP/s rows above.
struct IntGemmRow {
    GemmShape shape;
    double s8u8_scalar_gops = 0.0;
    double s8u8_avx2_gops = 0.0;
};

double gflops(const GemmShape& s, double seconds) {
    return 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
           static_cast<double>(s.n) / seconds / 1e9;
}

}  // namespace

int main() {
    core::print_banner(std::cout, "GEMM microbench: scalar blocked arm vs AVX2/FMA microkernel",
                       "infrastructure (no paper figure)");

    const bool has_avx2 = simd::cpu_supports_avx2_fma();
    const bool quick = bench::quick();
    std::cout << "avx2/fma available: " << (has_avx2 ? "yes" : "no")
              << "   default arm: " << simd::level_name(simd::detect_level()) << "\n\n";

    // Kernel timings run serially: GFLOP/s per arm, not pool scaling.
    runtime::ThreadPool::set_global_threads(1);

    std::vector<GemmRow> rows;
    Rng rng(33);
    for (const GemmShape& s : kShapes) {
        Tensor a(Shape{s.m, s.k});
        Tensor b(Shape{s.k, s.n});
        Tensor c(Shape{s.m, s.n});
        a.fill_uniform(rng, -1.0f, 1.0f);
        b.fill_uniform(rng, -1.0f, 1.0f);
        const int reps = quick ? 3 : (s.m * s.k * s.n > (1u << 24) ? 5 : 20);

        GemmRow row{s, 0.0, 0.0};
        simd::set_level(simd::Level::kScalar);
        const auto run = [&] { gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n); };
        row.scalar_gflops = gflops(s, bench::seconds_of(run, reps));
        if (has_avx2) {
            simd::set_level(simd::Level::kAvx2);
            row.avx2_gflops = gflops(s, bench::seconds_of(run, reps));
        }
        rows.push_back(row);
    }

    // Packed integer code kernels at the same shapes. Operand codes use
    // the 8-bit DoReFa grid bounds (|a| <= 127, b <= 127), so every
    // shape here satisfies int_accumulator_safe.
    std::vector<IntGemmRow> int_rows;
    for (const GemmShape& s : kShapes) {
        std::vector<std::int8_t> a8(s.m * s.k);
        std::vector<std::uint8_t> b8(s.k * s.n);
        std::vector<std::int32_t> c32(s.m * s.n);
        for (auto& v : a8) {
            v = static_cast<std::int8_t>(static_cast<int>(rng.next_u64() % 255) - 127);
        }
        for (auto& v : b8) v = static_cast<std::uint8_t>(rng.next_u64() % 128);
        const int reps = quick ? 3 : (s.m * s.k * s.n > (1u << 24) ? 5 : 20);

        IntGemmRow row{s, 0.0, 0.0};
        simd::set_level(simd::Level::kScalar);
        const auto run = [&] { gemm_s8u8(a8.data(), b8.data(), c32.data(), s.m, s.k, s.n); };
        row.s8u8_scalar_gops = gflops(s, bench::seconds_of(run, reps));
        if (has_avx2) {
            simd::set_level(simd::Level::kAvx2);
            row.s8u8_avx2_gops = gflops(s, bench::seconds_of(run, reps));
        }
        int_rows.push_back(row);
    }

    simd::set_level(simd::detect_level());
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    core::Table table({"GEMM (m x k x n)", "scalar GFLOP/s", "avx2 GFLOP/s", "speedup"});
    for (const GemmRow& r : rows) {
        const std::string dims = std::to_string(r.shape.m) + " x " + std::to_string(r.shape.k) +
                                 " x " + std::to_string(r.shape.n);
        table.add_row({r.shape.tag + (" (" + dims + ")"), core::fmt_fixed(r.scalar_gflops, 2),
                       has_avx2 ? core::fmt_fixed(r.avx2_gflops, 2) : "-",
                       has_avx2 ? core::fmt_fixed(r.avx2_gflops / r.scalar_gflops, 2) + "x"
                                : "-"});
    }
    table.print(std::cout);

    std::cout << "\n";
    core::Table int_table({"int GEMM (m x k x n)", "s8u8 scalar", "s8u8 avx2"});
    for (const IntGemmRow& r : int_rows) {
        const std::string dims = std::to_string(r.shape.m) + " x " + std::to_string(r.shape.k) +
                                 " x " + std::to_string(r.shape.n);
        int_table.add_row({r.shape.tag + (" (" + dims + ")"),
                           core::fmt_fixed(r.s8u8_scalar_gops, 2),
                           has_avx2 ? core::fmt_fixed(r.s8u8_avx2_gops, 2) : "-"});
    }
    int_table.print(std::cout);
    std::cout << "(GOP/s; one op = one code multiply-add, comparable with the "
                 "fp32 GFLOP/s rows)\n";

    core::BenchReport report("gemm");
    report.record_runtime_env();
    report.config().set("avx2_available", has_avx2);
    report.config().set("threads", std::uint64_t{1});  // measurement threads (not the pool)
    for (const GemmRow& r : rows) {
        core::BenchFields& row = report.add_row();
        row.set("kind", "gemm");
        row.set("tag", r.shape.tag);
        row.set("m", r.shape.m);
        row.set("k", r.shape.k);
        row.set("n", r.shape.n);
        row.set("scalar_gflops", r.scalar_gflops);
        row.set("avx2_gflops", r.avx2_gflops);
        row.set("speedup", r.scalar_gflops > 0.0 ? r.avx2_gflops / r.scalar_gflops : 0.0);
    }
    for (const IntGemmRow& r : int_rows) {
        core::BenchFields& row = report.add_row();
        row.set("kind", "gemm_int");
        row.set("tag", r.shape.tag);
        row.set("m", r.shape.m);
        row.set("k", r.shape.k);
        row.set("n", r.shape.n);
        row.set("s8u8_scalar_gops", r.s8u8_scalar_gops);
        row.set("s8u8_avx2_gops", r.s8u8_avx2_gops);
    }
    report.config().set("quick", quick);
    report.capture_runtime_metrics();
    std::cout << "\nSeries written to " << report.write_artifact() << "\n";

    if (has_avx2) {
        std::cout << "\nExpected on this host: >= 3x GEMM speedup at the conv-shaped sizes.\n";
    } else {
        std::cout << "\nNo AVX2/FMA: only the scalar arm was measured.\n";
    }
    return 0;
}
