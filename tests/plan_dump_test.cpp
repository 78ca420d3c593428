// The plan-IR dump and compile-time observability: a golden textual dump
// for a fixed single-unit graph (the format is part of the debugging
// surface — changes must be deliberate), the AMSNET_PLAN_DUMP file
// export, and the plan_* metrics counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "compile/plan.hpp"
#include "models/conv_unit.hpp"
#include "models/resnet.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/metrics.hpp"
#include "scratch_dir.hpp"
#include "train/evaluate.hpp"

namespace ams {
namespace {

/// The fixed graph every dump test compiles: one quantized ConvUnit
/// (conv -> inject -> bn) on a 2x3x8x8 input.
std::unique_ptr<models::ConvUnit> make_unit() {
    Rng rng(5);
    nn::Conv2dOptions opts{3, 4, 3, 1, 1, false};
    vmac::VmacConfig vcfg;
    vcfg.enob = 6.0;
    vcfg.nmult = 8;
    auto unit = std::make_unique<models::ConvUnit>(opts, 8, vcfg, /*ams_enabled=*/true, rng,
                                                   vmac::InjectionMode::kLumpedGaussian,
                                                   /*noise_stream=*/0);
    unit->set_training(false);
    return unit;
}

constexpr const char* kGoldenDump =
    "plan \"ConvUnit\" input=[2, 3, 8, 8] options{fuse=on fold_bn=off gemm_int=off}\n"
    "values (2, arena 512 floats):\n"
    "  v0: [2, 3, 8, 8] external \"input\"\n"
    "  v1: [2, 4, 8, 8] @0 \"conv_unit\" (output)\n"
    "steps (1):\n"
    "  s0: conv v0 -> v1  cout=4 k=3x3 s=1 p=1 numeric=fp32 tail=[inject record bn]\n"
    "stats: steps=1 layers_fused=2 intermediates_eliminated=2 module_walk_floats=1536 "
    "plan_floats=512\n";

TEST(PlanDumpTest, GoldenDumpForSingleConvUnit) {
    auto unit = make_unit();
    compile::ExecutionPlan plan = compile::compile(*unit, Shape{2, 3, 8, 8});
    EXPECT_EQ(plan.dump_string(), kGoldenDump);

    std::ostringstream os;
    plan.dump(os);
    EXPECT_EQ(os.str(), plan.dump_string());
}

TEST(PlanDumpTest, PlanDumpEnvExportsFile) {
    const std::filesystem::path dir = testutil::scratch_dir("amsnet_plan_dump_test");
    const std::filesystem::path path = dir / "nested" / "plan.txt";
    std::filesystem::remove_all(dir);
    ::setenv("AMSNET_PLAN_DUMP", path.c_str(), 1);
    auto unit = make_unit();
    compile::ExecutionPlan plan = compile::compile(*unit, Shape{2, 3, 8, 8});
    ::unsetenv("AMSNET_PLAN_DUMP");

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "dump file not written: " << path;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), plan.dump_string());
    std::filesystem::remove_all(dir);
}

TEST(PlanDumpTest, CompileAndRunUpdatePlanCounters) {
    namespace metrics = runtime::metrics;
    metrics::set_level(metrics::Level::kCounters);
    metrics::reset();

    auto unit = make_unit();
    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(*unit, Shape{2, 3, 8, 8});
    EXPECT_EQ(metrics::value(metrics::Counter::kPlanCompiles), 1u);
    EXPECT_EQ(metrics::value(metrics::Counter::kPlanLayersFused), plan.stats().layers_fused);
    EXPECT_EQ(metrics::value(metrics::Counter::kPlanIntermediatesEliminated),
              plan.stats().intermediates_eliminated);
    ASSERT_GT(plan.stats().module_walk_floats, plan.stats().plan_floats);
    EXPECT_EQ(metrics::value(metrics::Counter::kPlanArenaBytesSaved),
              4u * (plan.stats().module_walk_floats - plan.stats().plan_floats));

    Rng rng(9);
    Tensor x(Shape{2, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_EQ(metrics::value(metrics::Counter::kPlanRuns), 0u);
    (void)plan.run(x, ctx);
    (void)plan.run(x, ctx);
    EXPECT_EQ(metrics::value(metrics::Counter::kPlanRuns), 2u);

    metrics::reset();
    metrics::set_level(metrics::Level::kOff);
}

TEST(PlanDumpTest, EvaluatePathHonorsPlanDumpEnv) {
    // The end-to-end wiring: AMSNET_PLAN_DUMP during evaluate_top1 leaves
    // the tiny-ResNet plan IR on disk.
    const std::filesystem::path dir = testutil::scratch_dir("amsnet_plan_dump_eval");
    const std::filesystem::path path = dir / "resnet_plan.txt";
    std::filesystem::remove_all(dir);
    ::setenv("AMSNET_PLAN_DUMP", path.c_str(), 1);

    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    models::ResNet model(models::tiny_resnet_config(common));
    Rng rng(3);
    Tensor images(Shape{6, 3, 8, 8});
    images.fill_uniform(rng, -1.0f, 1.0f);
    const std::vector<std::size_t> labels{0, 1, 2, 3, 0, 1};
    (void)train::evaluate_top1(model, images, labels, 4, 1);

    ::unsetenv("AMSNET_PLAN_DUMP");
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "dump file not written: " << path;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("plan \"ResNet\""), std::string::npos);
    EXPECT_NE(content.str().find("stats: steps="), std::string::npos);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ams
