// The integer numeric domain end to end: compiled plans running int8
// convolutions must reproduce, bit for bit, a hand-built
// reference that encodes the same codes, runs the same integer GEMM,
// and requantizes as a separate whole-tensor pass — i.e. the *fused*
// requant epilogue is semantically invisible. Checked across remainder-
// tail conv geometries, both SIMD arms, and 1/4 threads (the integer
// kernels are exact, so this is an equality contract, not a tolerance).
// Also pins numeric-mode resolution in the dump IR (including the signed
// QuantInput grid that must stay fp32), the toleranced
// int-vs-fp32 distance, the gemm_int_calls / requant_ops counters, and
// the AMSNET_GEMM_INT env plumbing through the evaluate path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/sequential.hpp"
#include "quant/quant_modules.hpp"
#include "quant/quantized_view.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/metrics.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm_int.hpp"
#include "tensor/im2col.hpp"
#include "train/evaluate.hpp"

namespace ams {
namespace {

namespace metrics = runtime::metrics;

constexpr std::size_t kBits = 8;
constexpr std::size_t kLevels = 127;  // magnitude_levels(8)

class LevelGuard {
public:
    LevelGuard() : saved_(simd::active_level()) {}
    ~LevelGuard() { simd::set_level(saved_); }

private:
    simd::Level saved_;
};

struct ConvCase {
    nn::Conv2dOptions opts;
    std::size_t in_h, in_w;
};

// Geometries chosen so cout % 4, out_spatial % 8, and patch % 4 all hit
// nonzero remainders somewhere (partial A tiles, masked B column
// groups, padded k-blocks).
const ConvCase kConvCases[] = {
    {{3, 5, 3, 1, 1, false}, 7, 7},   // M=5, K=27, N=49
    {{2, 4, 1, 1, 0, false}, 6, 5},   // 1x1 kernel: K=2, N=30
    {{4, 9, 3, 2, 1, false}, 9, 9},   // stride 2: M=9, K=36, N=25
    {{3, 8, 5, 1, 2, false}, 8, 8},   // K=75, N=64
};

/// Input whose values sit exactly on the unsigned activation grid
/// k / 127, so QuantAct is a bit-level identity and the executor's
/// re-encode recovers exactly these codes.
Tensor on_grid_input(const ConvCase& c, std::size_t batch, std::uint64_t seed,
                     std::vector<std::uint8_t>& codes) {
    Rng rng(seed);
    Tensor x(Shape{batch, c.opts.in_channels, c.in_h, c.in_w});
    codes.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        codes[i] = static_cast<std::uint8_t>(rng.uniform(0.0, 127.0));
        x[i] = static_cast<float>(codes[i]) / static_cast<float>(kLevels);
    }
    return x;
}

enum class Tail { kNone, kRelu, kQuantAct };

std::unique_ptr<nn::Sequential> make_model(const ConvCase& c, Tail tail, std::uint64_t seed) {
    Rng rng(seed);
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<quant::QuantAct>(kBits);
    seq->emplace<quant::QuantConv2d>(c.opts, kBits, rng);
    if (tail == Tail::kRelu) seq->emplace<nn::ReLU>();
    if (tail == Tail::kQuantAct) seq->emplace<quant::QuantAct>(kBits);
    seq->set_training(false);
    return seq;
}

ConvGeometry geometry_of(const ConvCase& c) {
    ConvGeometry g;
    g.in_channels = c.opts.in_channels;
    g.in_h = c.in_h;
    g.in_w = c.in_w;
    g.kernel_h = g.kernel_w = c.opts.kernel;
    g.stride_h = g.stride_w = c.opts.stride;
    g.pad_h = g.pad_w = c.opts.padding;
    return g;
}

/// The unfused reference: same activation codes, same weight codes,
/// same integer GEMM — but requantization and the tail run as separate
/// whole-tensor passes over a plain buffer.
std::vector<float> int8_reference(const ConvCase& c, const nn::Sequential& model,
                                  const std::vector<std::uint8_t>& codes, std::size_t batch,
                                  Tail tail) {
    const auto& qc = dynamic_cast<const quant::QuantConv2d&>(model.child(1));
    const quant::QuantizedTensor wq =
        quant::dorefa_quantize_weights_q(qc.conv().weight().value, kBits);
    const std::int8_t* wi8 = wq.view().i8;

    const ConvGeometry g = geometry_of(c);
    const std::size_t image = g.in_channels * g.in_h * g.in_w;
    const std::size_t out_spatial = g.out_h() * g.out_w();
    const std::size_t out_image = c.opts.out_channels * out_spatial;
    const float dequant =
        1.0f / (static_cast<float>(kLevels) * static_cast<float>(kLevels));

    std::vector<float> out(batch * out_image);
    std::vector<std::uint8_t> cols(g.patch_size() * out_spatial);
    std::vector<std::int32_t> acc(out_image);
    for (std::size_t b = 0; b < batch; ++b) {
        im2col_u8(codes.data() + b * image, g, cols.data());
        gemm_s8u8(wi8, cols.data(), acc.data(), c.opts.out_channels, g.patch_size(),
                  out_spatial);
        float* dst = out.data() + b * out_image;
        for (std::size_t i = 0; i < out_image; ++i) {
            dst[i] = static_cast<float>(acc[i]) * dequant;
        }
    }
    if (tail == Tail::kRelu) simd::relu(out.data(), out.data(), out.size());
    if (tail == Tail::kQuantAct) {
        simd::quantize_unit(out.data(), out.data(), out.size(),
                            static_cast<float>(kLevels));
    }
    return out;
}

std::vector<float> run_plan(nn::Sequential& model, const Tensor& x, GemmIntMode mode) {
    compile::CompileOptions copts;
    copts.gemm_int = mode;
    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(model, x.shape(), copts);
    const Tensor out = plan.run(x, ctx);
    return std::vector<float>(out.data(), out.data() + out.size());
}

TEST(RequantPlanTest, FusedInt8EpilogueBitEqualsUnfusedReference) {
    LevelGuard guard;
    const std::size_t batch = 3;  // uneven chunks at 4 threads
    for (const ConvCase& c : kConvCases) {
        for (const Tail tail : {Tail::kNone, Tail::kRelu, Tail::kQuantAct}) {
            std::vector<std::uint8_t> codes;
            const Tensor x = on_grid_input(c, batch, 17 + c.opts.out_channels, codes);
            for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
                if (level == simd::Level::kAvx2 && !simd::cpu_supports_avx2_fma()) continue;
                simd::set_level(level);
                // The reference GEMM runs under the same arm; arms are
                // bit-identical anyway (integer math), so the choice
                // only exercises dispatch.
                auto model = make_model(c, tail, 29);
                const std::vector<float> expected =
                    int8_reference(c, *model, codes, batch, tail);
                for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                    runtime::ThreadPool::set_global_threads(threads);
                    auto fresh = make_model(c, tail, 29);
                    const std::vector<float> got = run_plan(*fresh, x, GemmIntMode::kInt8);
                    ASSERT_EQ(got.size(), expected.size());
                    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                          got.size() * sizeof(float)),
                              0)
                        << "cout=" << c.opts.out_channels << " k=" << c.opts.kernel
                        << " tail=" << static_cast<int>(tail)
                        << " level=" << simd::level_name(level) << " threads=" << threads;
                }
            }
        }
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
}

TEST(RequantPlanTest, SignedInputGridStaysFp32UnderInt8) {
    // A QuantInput stem emits signed codes, which vpmaddubsw cannot take
    // as its unsigned operand: under kInt8 the conv must resolve to fp32
    // and the whole plan must equal the kOff plan bit for bit.
    const ConvCase c{{3, 5, 3, 1, 1, false}, 7, 7};
    const std::size_t batch = 3;
    Rng rng(43);
    Tensor x(Shape{batch, c.opts.in_channels, c.in_h, c.in_w});
    x.fill_uniform(rng, -1.0f, 1.0f);

    auto make_signed_model = [&] {
        Rng wrng(31);
        auto seq = std::make_unique<nn::Sequential>();
        seq->emplace<quant::QuantInput>(1.0f, kBits);
        seq->emplace<quant::QuantConv2d>(c.opts, kBits, wrng);
        seq->set_training(false);
        return seq;
    };

    auto model = make_signed_model();
    compile::CompileOptions copts;
    copts.gemm_int = GemmIntMode::kInt8;
    const std::string dump = compile::compile(*model, x.shape(), copts).dump_string();
    EXPECT_NE(dump.find(" numeric=fp32"), std::string::npos) << dump;
    EXPECT_EQ(dump.find("numeric=int8"), std::string::npos) << dump;

    auto off_model = make_signed_model();
    const std::vector<float> expected = run_plan(*off_model, x, GemmIntMode::kOff);
    auto int8_model = make_signed_model();
    const std::vector<float> got = run_plan(*int8_model, x, GemmIntMode::kInt8);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)), 0);
}

TEST(RequantPlanTest, Int8WithinToleranceOfFp32Plan) {
    // The toleranced contract: same grids, different accumulation
    // domain. Differences are pure fp32 rounding in the float GEMM.
    const ConvCase c{{3, 8, 3, 1, 1, false}, 8, 8};
    std::vector<std::uint8_t> codes;
    const Tensor x = on_grid_input(c, 2, 71, codes);
    auto m1 = make_model(c, Tail::kNone, 53);
    const std::vector<float> fp32 = run_plan(*m1, x, GemmIntMode::kOff);
    auto m2 = make_model(c, Tail::kNone, 53);
    const std::vector<float> int8 = run_plan(*m2, x, GemmIntMode::kInt8);
    ASSERT_EQ(fp32.size(), int8.size());
    for (std::size_t i = 0; i < fp32.size(); ++i) {
        EXPECT_NEAR(fp32[i], int8[i], 1e-4f) << "i=" << i;
    }
}

TEST(RequantPlanTest, DumpShowsResolvedNumericModes) {
    const ConvCase c = kConvCases[0];
    std::vector<std::uint8_t> codes;
    const Tensor x = on_grid_input(c, 2, 5, codes);
    {
        auto model = make_model(c, Tail::kNone, 3);
        compile::CompileOptions copts;
        copts.gemm_int = GemmIntMode::kInt8;
        const compile::ExecutionPlan plan = compile::compile(*model, x.shape(), copts);
        const std::string dump = plan.dump_string();
        EXPECT_NE(dump.find("gemm_int=int8"), std::string::npos) << dump;
        EXPECT_NE(dump.find(" numeric=int8"), std::string::npos) << dump;
    }
    {
        auto model = make_model(c, Tail::kNone, 3);
        const compile::ExecutionPlan plan = compile::compile(*model, x.shape());
        const std::string dump = plan.dump_string();
        EXPECT_NE(dump.find("gemm_int=off"), std::string::npos) << dump;
        EXPECT_NE(dump.find(" numeric=fp32"), std::string::npos) << dump;
        EXPECT_EQ(dump.find("numeric=int8"), std::string::npos) << dump;
    }
}

TEST(RequantPlanTest, IntPathCountsGemmIntCallsAndRequantOps) {
    const ConvCase c = kConvCases[0];
    const std::size_t batch = 3;
    std::vector<std::uint8_t> codes;
    const Tensor x = on_grid_input(c, batch, 13, codes);
    const ConvGeometry g = geometry_of(c);
    const std::size_t out_image = c.opts.out_channels * g.out_h() * g.out_w();

    metrics::set_level(metrics::Level::kCounters);
    metrics::reset();
    auto model = make_model(c, Tail::kNone, 19);
    (void)run_plan(*model, x, GemmIntMode::kInt8);
    EXPECT_EQ(metrics::value(metrics::Counter::kGemmIntCalls), batch);  // one per image
    EXPECT_EQ(metrics::value(metrics::Counter::kRequantOps), batch * out_image);
    EXPECT_EQ(metrics::value(metrics::Counter::kGemmCalls), 0u);  // no fp32 GEMM ran

    metrics::reset();
    auto fp32_model = make_model(c, Tail::kNone, 19);
    (void)run_plan(*fp32_model, x, GemmIntMode::kOff);
    EXPECT_EQ(metrics::value(metrics::Counter::kGemmIntCalls), 0u);
    EXPECT_EQ(metrics::value(metrics::Counter::kRequantOps), 0u);
    EXPECT_GT(metrics::value(metrics::Counter::kGemmCalls), 0u);

    metrics::reset();
    metrics::set_level(metrics::Level::kOff);
}

TEST(RequantPlanTest, EvaluatePathHonorsGemmIntEnv) {
    // AMSNET_GEMM_INT=int8 must route the quantized ResNet's eligible
    // convs through the integer path.
    data::DatasetOptions dopts;
    dopts.classes = 4;
    dopts.train_per_class = 2;
    dopts.val_per_class = 4;
    dopts.image_size = 8;
    dopts.seed = 21;
    data::SyntheticImageNet ds(dopts);
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    models::ResNet model(models::tiny_resnet_config(common));

    const char* saved = ::getenv("AMSNET_GEMM_INT");
    const std::string saved_value = saved ? saved : "";
    ::setenv("AMSNET_GEMM_INT", "int8", 1);
    metrics::set_level(metrics::Level::kCounters);
    metrics::reset();
    (void)train::evaluate_top1(model, ds.val_images(), ds.val_labels(), 8, 1);
    EXPECT_GT(metrics::value(metrics::Counter::kGemmIntCalls), 0u);
    EXPECT_GT(metrics::value(metrics::Counter::kRequantOps), 0u);
    metrics::reset();
    metrics::set_level(metrics::Level::kOff);
    if (saved) {
        ::setenv("AMSNET_GEMM_INT", saved_value.c_str(), 1);
    } else {
        ::unsetenv("AMSNET_GEMM_INT");
    }
}

}  // namespace
}  // namespace ams
