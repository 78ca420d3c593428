// amsnet::serve correctness: bit-identity with the offline evaluate path
// at several instance counts, batching invariance, the generic factory
// form serving a bit_exact VMAC backend datapath, graceful shutdown, and
// the server's counter accounting.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "ams/vmac_conv.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "runtime/metrics.hpp"
#include "train/evaluate.hpp"

namespace ams::serve {
namespace {

// Serve's replica compiles read AMSNET_GEMM_INT, and every test here
// checks bit-identity against the fp32 allocating forward — pin the
// toleranced integer realization off for the whole binary (the CI int8
// shard exports AMSNET_GEMM_INT=int8 globally).
const bool kPinGemmIntOff = [] {
    ::setenv("AMSNET_GEMM_INT", "off", 1);
    return true;
}();

data::DatasetOptions tiny_data() {
    data::DatasetOptions o;
    o.classes = 4;
    o.train_per_class = 2;
    o.val_per_class = 6;
    o.image_size = 8;
    o.seed = 23;
    return o;
}

models::LayerCommon quant_common() {
    models::LayerCommon c;
    c.bits_w = 8;
    c.bits_x = 8;
    return c;
}

Shape chw_of(const Tensor& images) {
    return Shape{images.dim(1), images.dim(2), images.dim(3)};
}

/// The offline reference: the eval-mode allocating forward
/// (train::forward_batch), one whole-set batch on the primary.
Tensor evaluate_logits(nn::Module& model, const Tensor& images) {
    model.set_training(false);
    runtime::EvalContext ctx;
    const Tensor batch = train::slice_batch(images, 0, images.dim(0), ctx);
    Tensor logits = train::forward_batch(model, batch, ctx);
    Tensor owned(logits.shape());
    std::memcpy(owned.data(), logits.data(), logits.size() * sizeof(float));
    return owned;
}

/// Submits every image and checks each result row against `expected`
/// bit-for-bit.
void expect_served_rows_match(InferenceServer& server, const Tensor& images,
                              const Tensor& expected) {
    const std::size_t n = images.dim(0);
    const std::size_t image_floats = chw_of(images).numel();
    const std::size_t classes = expected.dim(1);
    std::vector<std::future<InferenceResult>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(server.submit(images.data() + i * image_floats));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const InferenceResult result = futures[i].get();
        ASSERT_EQ(result.logits.size(), classes);
        const float* row = expected.data() + i * classes;
        EXPECT_EQ(std::memcmp(result.logits.data(), row, classes * sizeof(float)), 0)
            << "image " << i;
        EXPECT_LT(result.predicted, classes);
        EXPECT_LE(result.timing.enqueue_ns, result.timing.dequeue_ns);
        EXPECT_LE(result.timing.dequeue_ns, result.timing.complete_ns);
        EXPECT_GE(result.timing.batch_size, 1u);
        EXPECT_LT(result.timing.instance, server.options().instances);
    }
}

TEST(ServeTest, BitIdenticalToEvaluateAtOneAndFourInstances) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    const Tensor expected = evaluate_logits(primary, ds.val_images());

    for (std::size_t instances : {std::size_t{1}, std::size_t{4}}) {
        ServerOptions options;
        options.instances = instances;
        options.max_batch = 4;
        options.max_delay_us = 500;
        InferenceServer server(primary, chw_of(ds.val_images()), options);
        expect_served_rows_match(server, ds.val_images(), expected);
        server.shutdown();
    }
}

TEST(ServeTest, BatchingInvarianceMaxBatchOneVsEight) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    const Tensor expected = evaluate_logits(primary, ds.val_images());

    for (std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
        ServerOptions options;
        options.instances = 2;
        options.max_batch = max_batch;
        options.max_delay_us = max_batch == 1 ? 0 : 2000;
        InferenceServer server(primary, chw_of(ds.val_images()), options);
        expect_served_rows_match(server, ds.val_images(), expected);
        server.shutdown();
    }
}

TEST(ServeTest, ServesBitExactVmacBackendThroughFactory) {
    // A real VMAC datapath (bit_exact backend: operand codecs + ADC per
    // chunk, no noise) behind the generic factory constructor. Its
    // "logits" are the conv output pooled to {N, C}.
    const Shape image_shape{3, 8, 8};
    Rng rng(11);
    Tensor weight(Shape{4, 3, 3, 3});
    weight.fill_uniform(rng, -1.0f, 1.0f);
    Tensor images(Shape{6, 3, 8, 8});
    images.fill_uniform(rng, -1.0f, 1.0f);

    vmac::VmacConfig config;
    config.nmult = 8;
    const vmac::AnalogOptions analog;
    vmac::BackendOptions backend;
    backend.kind = vmac::BackendKind::kBitExact;
    auto build = [&](std::size_t /*instance*/) {
        auto seq = std::make_unique<nn::Sequential>();
        Tensor w(weight.shape());
        std::memcpy(w.data(), weight.data(), weight.size() * sizeof(float));
        seq->emplace<vmac::VmacConv2d>(std::move(w), 1, 1, config, analog, backend, Rng(5));
        seq->emplace<nn::GlobalAvgPool>();
        return seq;
    };

    auto reference = build(0);
    const Tensor expected = evaluate_logits(*reference, images);

    ServerOptions options;
    options.instances = 2;
    options.max_batch = 3;
    options.max_delay_us = 500;
    InferenceServer server(InstanceFactory(build), image_shape, options);
    expect_served_rows_match(server, images, expected);
}

TEST(ServeTest, ShutdownDrainsEveryQueuedRequest) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));

    ServerOptions options;
    options.instances = 1;
    options.max_batch = 4;
    options.max_delay_us = 500000;  // a long budget the drain must waive
    InferenceServer server(primary, chw_of(ds.val_images()), options);

    const std::size_t n = ds.val_images().dim(0);
    const std::size_t image_floats = chw_of(ds.val_images()).numel();
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(server.submit(ds.val_images().data() + i * image_floats));
    }
    server.shutdown();

    for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.completed, n);
    EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ServeTest, SubmitAfterShutdownThrows) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    InferenceServer server(primary, chw_of(ds.val_images()), {});
    server.shutdown();
    EXPECT_THROW((void)server.submit(ds.val_images().data()), std::runtime_error);
}

TEST(ServeTest, ValidatesOptionsAndShapes) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    const Shape chw = chw_of(ds.val_images());

    ServerOptions zero_instances;
    zero_instances.instances = 0;
    EXPECT_THROW(InferenceServer(primary, chw, zero_instances), std::invalid_argument);
    ServerOptions zero_batch;
    zero_batch.max_batch = 0;
    EXPECT_THROW(InferenceServer(primary, chw, zero_batch), std::invalid_argument);
    EXPECT_THROW(InferenceServer(primary, Shape{8, 8}, {}), std::invalid_argument);

    InferenceServer server(primary, chw, {});
    Tensor wrong(Shape{1, 2, 2});
    EXPECT_THROW((void)server.submit(wrong), std::invalid_argument);
    EXPECT_THROW((void)server.submit(static_cast<const float*>(nullptr)),
                 std::invalid_argument);
    // Rank-3 CHW and rank-4 [1,C,H,W] both work.
    Tensor one(Shape{chw.dim(0), chw.dim(1), chw.dim(2)});
    EXPECT_NO_THROW((void)server.submit(one).get());
    Tensor one4(Shape{1, chw.dim(0), chw.dim(1), chw.dim(2)});
    EXPECT_NO_THROW((void)server.submit(one4).get());
}

TEST(ServeTest, StatsAndMetricsAccountForEveryRequest) {
    namespace metrics = runtime::metrics;
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));

    metrics::set_level(metrics::Level::kCounters);
    const std::uint64_t requests_before = metrics::value(metrics::Counter::kServeRequests);
    const std::uint64_t images_before = metrics::value(metrics::Counter::kServeBatchImages);

    ServerOptions options;
    options.instances = 2;
    options.max_batch = 4;
    options.max_delay_us = 200;
    const std::size_t n = ds.val_images().dim(0);
    {
        InferenceServer server(primary, chw_of(ds.val_images()), options);
        const std::size_t image_floats = chw_of(ds.val_images()).numel();
        std::vector<std::future<InferenceResult>> futures;
        for (std::size_t i = 0; i < n; ++i) {
            futures.push_back(server.submit(ds.val_images().data() + i * image_floats));
        }
        for (auto& f : futures) (void)f.get();
        server.shutdown();

        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.submitted, n);
        EXPECT_EQ(stats.completed, n);
        EXPECT_EQ(stats.batched_images, n);
        EXPECT_GE(stats.batches, (n + options.max_batch - 1) / options.max_batch);
        EXPECT_LE(stats.batches, n);
        EXPECT_GE(stats.max_queue_depth, 1u);
        std::uint64_t histogram_batches = 0;
        std::uint64_t histogram_images = 0;
        ASSERT_EQ(stats.batch_size_histogram.size(), options.max_batch + 1);
        for (std::size_t b = 1; b <= options.max_batch; ++b) {
            histogram_batches += stats.batch_size_histogram[b];
            histogram_images += b * stats.batch_size_histogram[b];
        }
        EXPECT_EQ(histogram_batches, stats.batches);
        EXPECT_EQ(histogram_images, stats.batched_images);
        EXPECT_GE(stats.mean_batch(), 1.0);
        EXPECT_LE(stats.mean_batch(), static_cast<double>(options.max_batch));
    }
    EXPECT_EQ(metrics::value(metrics::Counter::kServeRequests) - requests_before, n);
    EXPECT_EQ(metrics::value(metrics::Counter::kServeBatchImages) - images_before, n);
    metrics::set_level(metrics::Level::kOff);
}

TEST(ServeTest, ShutdownExportsMetricsDumpWhenConfigured) {
    namespace metrics = runtime::metrics;
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));

    const std::string path = ::testing::TempDir() + "serve_metrics_dump.json";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("AMSNET_METRICS_DUMP", path.c_str(), 1), 0);
    metrics::set_level(metrics::Level::kCounters);
    {
        InferenceServer server(primary, chw_of(ds.val_images()), {});
        (void)server.submit(ds.val_images().data()).get();
        server.shutdown();  // exports the snapshot
    }
    metrics::set_level(metrics::Level::kOff);
    ASSERT_EQ(unsetenv("AMSNET_METRICS_DUMP"), 0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream contents;
    contents << in.rdbuf();
    EXPECT_NE(contents.str().find("\"serve_requests\""), std::string::npos);
    EXPECT_NE(contents.str().find("\"serve_batches\""), std::string::npos);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace ams::serve
