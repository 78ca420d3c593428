#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "scratch_dir.hpp"

namespace ams::core {
namespace {

namespace fs = std::filesystem;

ExperimentOptions tiny_options(const std::string& cache_dir) {
    ExperimentOptions o;
    o.dataset.classes = 4;
    o.dataset.train_per_class = 16;
    o.dataset.val_per_class = 8;
    o.dataset.image_size = 8;
    o.dataset.seed = 3;
    o.eval_passes = 2;
    o.batch_size = 16;
    o.fp32_train.epochs = 1;
    o.fp32_train.batch_size = 16;
    o.fp32_train.patience = 0;
    o.retrain.epochs = 1;
    o.retrain.batch_size = 16;
    o.retrain.patience = 0;
    o.cache_dir = cache_dir;
    return o;
}

class ExperimentEnvTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testutil::scratch_dir("amsnet_exp_test").string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    std::string dir_;
};

TEST_F(ExperimentEnvTest, PipelinePhasesProduceLoadableStates) {
    ExperimentEnv env(tiny_options(dir_));
    const TensorMap fp32 = env.fp32_state();
    EXPECT_FALSE(fp32.empty());
    const auto r = env.evaluate_state(fp32, env.fp32_common());
    EXPECT_GE(r.mean, 0.0);
    EXPECT_EQ(r.passes.size(), 2u);

    const TensorMap quant = env.quantized_state(8, 8);
    EXPECT_FALSE(quant.empty());

    vmac::VmacConfig v;
    v.enob = 6.0;
    v.nmult = 8;
    const TensorMap ams = env.ams_retrained_state(8, 8, v);
    EXPECT_FALSE(ams.empty());
    const auto ra = env.evaluate_state(ams, env.ams_common(8, 8, v));
    EXPECT_GE(ra.mean, 0.0);
}

TEST_F(ExperimentEnvTest, StatesAreCachedOnDisk) {
    ExperimentEnv env(tiny_options(dir_));
    (void)env.fp32_state();
    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
    // Second call must not add files (cache hit).
    (void)env.fp32_state();
    files = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST_F(ExperimentEnvTest, FreezeTagChangesCacheKey) {
    ExperimentEnv env(tiny_options(dir_));
    vmac::VmacConfig v;
    v.enob = 6.0;
    v.nmult = 8;
    (void)env.ams_retrained_state(8, 8, v, {});
    (void)env.ams_retrained_state(8, 8, v, {models::LayerGroup::kBatchNorm});
    // fp32 + quant + two AMS variants = 4 cache files.
    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 4u);
}

TEST_F(ExperimentEnvTest, CommonFactoriesSetBits) {
    ExperimentEnv env(tiny_options(dir_));
    EXPECT_EQ(env.fp32_common().bits_w, quant::kFloatBits);
    EXPECT_EQ(env.quant_common(6, 4).bits_w, 6u);
    EXPECT_EQ(env.quant_common(6, 4).bits_x, 4u);
    vmac::VmacConfig v;
    v.enob = 9.0;
    const auto c = env.ams_common(8, 8, v);
    EXPECT_TRUE(c.ams_enabled);
    EXPECT_DOUBLE_EQ(c.vmac.enob, 9.0);
}

TEST_F(ExperimentEnvTest, StandardOptionsAreSane) {
    const auto o = ExperimentOptions::standard();
    EXPECT_GE(o.dataset.classes, 2u);
    EXPECT_GT(o.fp32_train.epochs, 0u);
    EXPECT_GT(o.retrain.epochs, 0u);
    EXPECT_EQ(o.eval_passes, 5u);  // the paper's protocol
}

}  // namespace
}  // namespace ams::core
