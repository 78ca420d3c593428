// Serving concurrency stress: many client threads against a small
// instance pool, shutdown racing in-flight submissions, idempotent
// shutdown. Designed to run under ThreadSanitizer (CI tsan job) — the
// assertions here are "no lost request, no data race", not performance.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"

namespace ams::serve {
namespace {

data::DatasetOptions tiny_data() {
    data::DatasetOptions o;
    o.classes = 4;
    o.train_per_class = 2;
    o.val_per_class = 4;
    o.image_size = 8;
    o.seed = 77;
    return o;
}

models::LayerCommon quant_common() {
    models::LayerCommon c;
    c.bits_w = 8;
    c.bits_x = 8;
    return c;
}

// One instance serializes every batch; two and four split the queue
// across replicas. Each pool size must account for every request.
TEST(ServeStressTest, ConcurrentClientsLoseNoRequest) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    const Tensor& images = ds.val_images();
    const Shape chw{images.dim(1), images.dim(2), images.dim(3)};
    const std::size_t n_images = images.dim(0);
    const std::size_t image_floats = chw.numel();

    for (const std::size_t instances : {1u, 2u, 4u}) {
        SCOPED_TRACE("instances=" + std::to_string(instances));
        ServerOptions options;
        options.instances = instances;
        options.max_batch = 4;
        options.max_delay_us = 200;
        InferenceServer server(primary, chw, options);

        constexpr std::size_t kClients = 8;
        constexpr std::size_t kPerClient = 24;
        std::atomic<std::size_t> ok{0};
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                for (std::size_t i = 0; i < kPerClient; ++i) {
                    const float* image = images.data() + ((c + i) % n_images) * image_floats;
                    const InferenceResult result = server.submit(image).get();
                    if (result.logits.size() == 4 && result.predicted < 4) {
                        ok.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            });
        }
        for (std::thread& t : clients) t.join();
        server.shutdown();

        EXPECT_EQ(ok.load(), kClients * kPerClient);
        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.submitted, kClients * kPerClient);
        EXPECT_EQ(stats.completed, kClients * kPerClient);
        EXPECT_EQ(server.queue_depth(), 0u);
    }
}

TEST(ServeStressTest, ShutdownRacingSubmissionsLosesNothing) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    const Tensor& images = ds.val_images();
    const Shape chw{images.dim(1), images.dim(2), images.dim(3)};
    const std::size_t image_floats = chw.numel();

    ServerOptions options;
    options.instances = 2;
    options.max_batch = 4;
    options.max_delay_us = 1000;
    InferenceServer server(primary, chw, options);

    // Clients hammer submit while another thread shuts the server down:
    // every submit either returns a future that completes, or throws the
    // documented runtime_error — nothing hangs, nothing is dropped.
    constexpr std::size_t kClients = 6;
    std::atomic<std::size_t> accepted{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> rejected{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<std::future<InferenceResult>> futures;
            for (std::size_t i = 0; i < 40; ++i) {
                try {
                    futures.push_back(server.submit(images.data() + (c % 4) * image_floats));
                    accepted.fetch_add(1, std::memory_order_relaxed);
                } catch (const std::runtime_error&) {
                    rejected.fetch_add(1, std::memory_order_relaxed);
                    break;  // server is stopping; later submits also throw
                }
            }
            for (auto& f : futures) {
                (void)f.get();
                completed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // Let some traffic through, then shut down concurrently from two
    // threads (shutdown is idempotent and thread-safe).
    std::thread closer_a([&] { server.shutdown(); });
    std::thread closer_b([&] { server.shutdown(); });
    closer_a.join();
    closer_b.join();
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(completed.load(), accepted.load());
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, accepted.load());
    EXPECT_EQ(stats.completed, accepted.load());
    EXPECT_EQ(server.queue_depth(), 0u);

    // And shutdown again after the fact is a no-op.
    server.shutdown();
}

TEST(ServeStressTest, DestructorDrainsWithoutExplicitShutdown) {
    data::SyntheticImageNet ds(tiny_data());
    models::ResNet primary(models::tiny_resnet_config(quant_common()));
    const Tensor& images = ds.val_images();
    const Shape chw{images.dim(1), images.dim(2), images.dim(3)};

    std::vector<std::future<InferenceResult>> futures;
    {
        ServerOptions options;
        options.instances = 2;
        options.max_batch = 8;
        options.max_delay_us = 100000;
        InferenceServer server(primary, chw, options);
        for (std::size_t i = 0; i < 12; ++i) {
            futures.push_back(server.submit(images.data() + (i % 4) * chw.numel()));
        }
    }  // ~InferenceServer drains
    for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
}

}  // namespace
}  // namespace ams::serve
