// Serving demo: stand up the in-process inference server on a quantized
// mini-ResNet, submit a burst of single-image requests from several
// client threads, and show what dynamic batching did with them.
//
//   ./examples/serve_demo [instances] [max_batch] [requests]
//
// This is the 60-second tour of amsnet::serve (DESIGN.md §12): submit()
// returns a future per image; a pool of weight-sharing model replicas
// coalesces requests into batches under a latency budget; shutdown()
// drains everything in flight.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "serve/server.hpp"

using namespace ams;

int main(int argc, char** argv) {
    serve::ServerOptions options;
    options.instances = argc > 1 ? std::stoul(argv[1]) : 2;
    options.max_batch = argc > 2 ? std::stoul(argv[2]) : 8;
    options.max_delay_us = 2000;
    const std::size_t requests = argc > 3 ? std::stoul(argv[3]) : 128;

    std::cout << "amsnet serve demo: " << options.instances << " instance(s), max_batch "
              << options.max_batch << ", latency budget " << options.max_delay_us << " us\n\n";

    // 1. A quantized (8b) mini-ResNet and a synthetic validation set.
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    models::ResNet primary(models::mini_resnet_config(common));
    primary.set_training(false);

    data::DatasetOptions data_options;
    data_options.classes = 10;
    data_options.train_per_class = 1;
    data_options.val_per_class = 8;
    data_options.image_size = 16;
    data::SyntheticImageNet dataset(data_options);
    const Tensor& images = dataset.val_images();
    const Shape image_shape{images.dim(1), images.dim(2), images.dim(3)};

    // 2. The server: each instance is an eval replica sharing the primary's
    //    weights (models::make_eval_replica), with its own planned arena.
    serve::InferenceServer server(primary, image_shape, options);

    // 3. One single-image request, end to end.
    serve::InferenceResult one = server.submit(images.data()).get();
    std::cout << "single request: predicted class " << one.predicted << " in "
              << core::fmt_fixed(static_cast<double>(one.timing.latency_ns()) * 1e-3, 0)
              << " us (batch of " << one.timing.batch_size << " on instance "
              << one.timing.instance << ")\n";

    // 4. A closed-loop burst: each client thread submits one image, waits
    //    for its result, then submits the next.
    const std::size_t clients = 2 * options.instances;
    std::atomic<std::size_t> completed{0};
    std::atomic<std::uint64_t> latency_ns{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = c; i < requests; i += clients) {
                const float* image = images.data() + (i % images.dim(0)) * image_shape.numel();
                latency_ns += server.submit(image).get().timing.latency_ns();
                ++completed;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    server.shutdown();
    const serve::ServerStats stats = server.stats();

    std::cout << "\nburst of " << requests << " requests from " << clients << " clients:\n";
    std::cout << "  completed      " << completed << " ("
              << core::fmt_fixed(static_cast<double>(completed) / seconds, 0) << " images/s)\n";
    const double mean_latency_us =
        completed == 0 ? 0.0 : static_cast<double>(latency_ns) * 1e-3 / completed;
    std::cout << "  mean latency   " << core::fmt_fixed(mean_latency_us, 0) << " us\n";
    std::cout << "  mean batch     " << core::fmt_fixed(stats.mean_batch(), 2) << " of "
              << options.max_batch << " (fill "
              << core::fmt_fixed(stats.batch_fill_ratio(options.max_batch) * 100.0, 0) << "%)\n";
    std::cout << "  batches        " << stats.batches << ", max queue depth "
              << stats.max_queue_depth << "\n";

    // 5. How much does an extra instance cost? Only buffers and arenas —
    //    replica weights are borrowed views over the primary's storage.
    auto replica = models::make_eval_replica(primary, 0);
    std::cout << "\nreplica owned parameter floats: " << nn::owned_parameter_floats(*replica)
              << " (weights shared with the primary: "
              << nn::owned_parameter_floats(primary) << " floats held once)\n";
    return completed == requests ? 0 : 1;
}
