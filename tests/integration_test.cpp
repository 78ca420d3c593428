// Cross-module integration tests: the full pipeline on a deliberately
// tiny configuration, exercising the same paths the experiment benches
// use but in seconds.
#include <gtest/gtest.h>

#include <filesystem>

#include "amsnet.hpp"
#include "scratch_dir.hpp"

namespace ams {
namespace {

namespace fs = std::filesystem;

core::ExperimentOptions tiny_options(const std::string& dir) {
    core::ExperimentOptions o;
    o.dataset.classes = 4;
    o.dataset.train_per_class = 40;
    o.dataset.val_per_class = 16;
    o.dataset.image_size = 8;
    o.dataset.noise_sigma = 0.2f;
    o.dataset.seed = 21;
    o.eval_passes = 3;
    o.batch_size = 16;
    o.fp32_train.epochs = 4;
    o.fp32_train.batch_size = 16;
    o.fp32_train.patience = 0;
    o.fp32_train.sgd = {0.05f, 0.9f, 0.0f};
    o.retrain.epochs = 2;
    o.retrain.batch_size = 16;
    o.retrain.patience = 0;
    o.cache_dir = dir;
    return o;
}

class IntegrationTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testutil::scratch_dir("amsnet_integration").string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    std::string dir_;
};

TEST_F(IntegrationTest, FullPipelineBeatsChanceAtEveryPhase) {
    core::ExperimentEnv env(tiny_options(dir_));
    const double chance = 1.0 / static_cast<double>(env.options().dataset.classes);

    const TensorMap fp32 = env.fp32_state();
    const auto r_fp32 = env.evaluate_state(fp32, env.fp32_common());
    EXPECT_GT(r_fp32.mean, chance + 0.15);

    const TensorMap q = env.quantized_state(8, 8);
    const auto r_q = env.evaluate_state(q, env.quant_common(8, 8));
    EXPECT_GT(r_q.mean, chance + 0.15);

    vmac::VmacConfig v;
    v.enob = 6.0;
    v.nmult = 8;
    const TensorMap ams_state = env.ams_retrained_state(8, 8, v);
    const auto r_ams = env.evaluate_state(ams_state, env.ams_common(8, 8, v));
    EXPECT_GT(r_ams.mean, chance + 0.1);
}

TEST_F(IntegrationTest, MoreNoiseNeverHelpsAtEvalTime) {
    core::ExperimentEnv env(tiny_options(dir_));
    const TensorMap q = env.quantized_state(8, 8);
    double prev = 0.0;
    // Sweep coarse -> fine: accuracy must be non-decreasing up to noise.
    for (double enob : {2.0, 4.0, 8.0, 12.0}) {
        vmac::VmacConfig v;
        v.enob = enob;
        v.nmult = 8;
        const auto r = env.evaluate_state(q, env.ams_common(8, 8, v));
        EXPECT_GE(r.mean, prev - 0.08) << "at ENOB " << enob;
        prev = r.mean;
    }
}

TEST_F(IntegrationTest, CheckpointReloadReproducesEvaluationExactly) {
    core::ExperimentEnv env(tiny_options(dir_));
    const TensorMap q = env.quantized_state(8, 8);
    const auto a = env.evaluate_state(q, env.quant_common(8, 8));
    // A second env over the same cache dir must load identical weights.
    core::ExperimentEnv env2(tiny_options(dir_));
    const TensorMap q2 = env2.quantized_state(8, 8);
    const auto b = env2.evaluate_state(q2, env2.quant_common(8, 8));
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST_F(IntegrationTest, LumpedAndPerVmacInjectionAgreeAtNetworkLevel) {
    core::ExperimentEnv env(tiny_options(dir_));
    const TensorMap q = env.quantized_state(8, 8);
    vmac::VmacConfig v;
    v.enob = 5.0;
    v.nmult = 8;
    auto lumped = env.make_model(env.ams_common(8, 8, v));
    lumped->load_state("", q);
    auto per_vmac =
        env.make_model(env.ams_common(8, 8, v, vmac::InjectionMode::kPerVmacUniform));
    per_vmac->load_state("", q);
    const auto rl = train::evaluate_top1(*lumped, env.dataset().val_images(),
                                         env.dataset().val_labels(), 16, 6);
    const auto rp = train::evaluate_top1(*per_vmac, env.dataset().val_images(),
                                         env.dataset().val_labels(), 16, 6);
    EXPECT_NEAR(rl.mean, rp.mean, 0.12);
}

TEST_F(IntegrationTest, EnergyAccountingConsistentWithModelGeometry) {
    core::ExperimentEnv env(tiny_options(dir_));
    auto model = env.make_model(env.fp32_common());
    Tensor probe(Shape{1, 3, env.options().dataset.image_size,
                       env.options().dataset.image_size});
    const auto shapes = core::extract_layer_shapes(*model, probe);
    const auto report = energy::account_network(shapes, energy::VmacEnergyModel{}, 8.0, 8);
    EXPECT_EQ(report.layers.size(), model->num_conv_layers() + 1);
    EXPECT_GT(report.total_macs, 0u);
    // ADC-only at ENOB <= 10.5: every MAC costs the amortized floor.
    EXPECT_NEAR(report.mean_emac_fj(), 300.0 / 8.0, 1e-6);
}

TEST_F(IntegrationTest, ActivationMeansRespondToRetrainingWithNoise) {
    core::ExperimentEnv env(tiny_options(dir_));
    vmac::VmacConfig v;
    v.enob = 4.0;  // heavy noise
    v.nmult = 8;
    const TensorMap q = env.quantized_state(8, 8);
    const TensorMap ams_state = env.ams_retrained_state(8, 8, v);

    auto quant_model = env.make_model(env.quant_common(8, 8));
    quant_model->load_state("", q);
    auto ams_model = env.make_model(env.ams_common(8, 8, v));
    ams_model->load_state("", ams_state);

    const auto m_q =
        train::record_activation_means(*quant_model, env.dataset().val_images(), 16);
    const auto m_a =
        train::record_activation_means(*ams_model, env.dataset().val_images(), 16);
    ASSERT_EQ(m_q.size(), m_a.size());
    // The retrained network's activation means must differ measurably.
    double diff = 0.0;
    for (std::size_t i = 0; i < m_q.size(); ++i) diff += std::abs(m_a[i] - m_q[i]);
    EXPECT_GT(diff / static_cast<double>(m_q.size()), 1e-3);
}

}  // namespace
}  // namespace ams
