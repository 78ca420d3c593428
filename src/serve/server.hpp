// amsnet::serve — in-process inference server with dynamic batching.
//
// The offline harness (train/evaluate.hpp) answers "what is the accuracy
// of this error model" by sweeping whole validation sets. This layer
// answers the serving question the ROADMAP's north star asks: single-image
// requests arrive asynchronously, get coalesced into batches under a
// latency budget, and are executed by a pool of model *instances* — each
// an eval-only replica of one primary model (models::make_eval_replica)
// with its own compiled ExecutionPlan and EvalContext, so the
// steady-state model path stays allocation-free and noisy AMS backends
// stay statistically independent across instances.
//
// Architecture (DESIGN.md §12):
//
//     submit() ──▶ [ request queue ] ──▶ worker 0: replica 0 + ctx 0
//        │              (mutex+cv)  ──▶ worker 1: replica 1 + ctx 1
//     future◀───────────────────────────────┘   ... instance pool ...
//
//   * The queue is a plain FIFO guarded by one mutex: requests are a few
//     KiB of image each, so queue ops are nanoseconds next to a forward.
//   * A worker forms a batch by taking what is queued (up to max_batch);
//     if the batch is short it waits until either more work arrives or
//     `max_delay_us` has elapsed since the *oldest member* was enqueued —
//     the latency budget bounds the queueing delay batching can add.
//   * Completion is futures-based: submit() returns a
//     std::future<InferenceResult> fulfilled by the worker that served
//     the request. Model kernels themselves still fan out through the
//     global ThreadPool (parallel_for regions issued from worker
//     threads), so one big batch uses every core.
//   * shutdown() is graceful: new submissions are rejected, workers
//     drain every queued request (ignoring the batching delay), futures
//     all complete, threads join. The destructor calls it.
//
// Determinism contract: a deterministic model configuration (no AMS
// noise, e.g. the bit_exact datapath) produces logits *bit-identical* to
// train::evaluate on the same images at any instance count, batch size,
// and request interleaving — both run the compiled plan, and per-image
// results are independent of the batch they ride in. Stochastic configurations are *not* batch- or
// schedule-invariant (noise epochs advance per forward); instead each
// instance owns an independent, per-instance-seeded noise stream.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "models/resnet.hpp"
#include "nn/module.hpp"
#include "runtime/eval_context.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace ams::serve {

/// Server knobs. Defaults serve a latency-lenient batch-throughput mix.
struct ServerOptions {
    std::size_t instances = 1;        ///< model replicas == worker threads
    std::size_t max_batch = 8;        ///< batch coalescing cap (>= 1)
    std::uint64_t max_delay_us = 1000;  ///< latency budget for batch fill;
                                        ///< 0 = never wait (batch whatever
                                        ///< is already queued)
    std::uint64_t seed = 0x5EBFE5EBFE5ULL;  ///< EvalContext seed base

    /// Throws std::invalid_argument on degenerate values.
    void validate() const;
};

/// Per-request timing, measured on the server's steady clock (ns since
/// server construction).
struct RequestTiming {
    std::uint64_t enqueue_ns = 0;   ///< submit() accepted the request
    std::uint64_t dequeue_ns = 0;   ///< its batch was formed
    std::uint64_t complete_ns = 0;  ///< its future was fulfilled
    std::size_t batch_size = 0;     ///< size of the batch it was served in
    std::size_t instance = 0;       ///< replica that served it

    [[nodiscard]] std::uint64_t queue_wait_ns() const { return dequeue_ns - enqueue_ns; }
    [[nodiscard]] std::uint64_t latency_ns() const { return complete_ns - enqueue_ns; }
};

/// What a fulfilled future carries.
struct InferenceResult {
    std::vector<float> logits;  ///< one row of the model's output
    std::size_t predicted = 0;  ///< argmax of logits
    RequestTiming timing;
};

/// Monotonic server counters (also mirrored into runtime::metrics under
/// the serve_* names, so AMSNET_TRACE=counters sees serving traffic in
/// the process-wide ledger).
struct ServerStats {
    std::uint64_t submitted = 0;      ///< requests accepted
    std::uint64_t completed = 0;      ///< futures fulfilled (incl. errors)
    std::uint64_t batches = 0;        ///< batches dispatched
    std::uint64_t batched_images = 0; ///< images across all batches
    std::uint64_t queue_wait_ns = 0;  ///< summed enqueue -> dequeue wait
    std::uint64_t max_queue_depth = 0;
    /// histogram[b] = batches dispatched with exactly b images
    /// (index 0 unused; size max_batch + 1).
    std::vector<std::uint64_t> batch_size_histogram;

    /// Mean fraction of max_batch a dispatched batch actually filled.
    [[nodiscard]] double batch_fill_ratio(std::size_t max_batch) const {
        return batches == 0 ? 0.0
                            : static_cast<double>(batched_images) /
                                  (static_cast<double>(batches) * static_cast<double>(max_batch));
    }
    [[nodiscard]] double mean_batch() const {
        return batches == 0 ? 0.0
                            : static_cast<double>(batched_images) / static_cast<double>(batches);
    }
};

/// Builds the model instance a worker will own. Called once per instance
/// at server construction; the server switches it to eval mode, compiles
/// it for [max_batch, CHW] and owns it for the server's lifetime.
/// Instances must be independent: concurrent forwards on distinct
/// returned modules must not share mutable state.
using InstanceFactory = std::function<std::unique_ptr<nn::Module>(std::size_t instance)>;

/// The in-process inference server.
class InferenceServer {
public:
    /// Serves replicas of `primary` (models::make_eval_replica: shared
    /// immutable weights, per-instance noise streams). `primary` must
    /// outlive the server and must not be mutated while it runs.
    /// `image_shape` is the CHW shape of one request image.
    InferenceServer(models::ResNet& primary, const Shape& image_shape,
                    const ServerOptions& options = {});

    /// Generic form: serves whatever `factory` builds (any module graph
    /// compile::compile lowers — e.g. a Sequential wrapping a VmacConv2d
    /// backend datapath). Throws compile::CompileError on a graph the
    /// compiler cannot lower.
    InferenceServer(InstanceFactory factory, const Shape& image_shape,
                    const ServerOptions& options = {});

    /// Graceful shutdown (drains the queue).
    ~InferenceServer();

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    /// Enqueues one image (copied; `image` must hold CHW floats of the
    /// construction-time shape) and returns the future of its result.
    /// Thread-safe. Throws std::runtime_error once shutdown has begun.
    [[nodiscard]] std::future<InferenceResult> submit(const float* image);

    /// Convenience: rank-3 CHW tensor, or rank-4 [1, C, H, W]. Throws
    /// std::invalid_argument on a shape mismatch.
    [[nodiscard]] std::future<InferenceResult> submit(const Tensor& image);

    /// Stops accepting work, serves every queued request (the batching
    /// delay is waived while draining), joins the instance workers, and
    /// exports the metrics snapshot if AMSNET_METRICS_DUMP is set.
    /// Idempotent; thread-safe.
    void shutdown();

    /// Snapshot of the server counters (consistent across fields).
    [[nodiscard]] ServerStats stats() const;

    /// Requests currently queued (not yet dispatched to an instance).
    [[nodiscard]] std::size_t queue_depth() const;

    [[nodiscard]] const ServerOptions& options() const { return options_; }
    [[nodiscard]] const Shape& image_shape() const { return image_shape_; }

    /// ns since the server's epoch on its steady clock (the timebase of
    /// RequestTiming).
    [[nodiscard]] std::uint64_t now_ns() const;

private:
    struct Request;
    struct Instance;

    void start_workers();
    void worker_loop(std::size_t instance_index);
    /// Pops the next batch under the latency budget; empty => shut down.
    [[nodiscard]] std::vector<Request> next_batch();
    void run_batch(std::size_t instance_index, std::vector<Request>& batch);

    ServerOptions options_;
    Shape image_shape_;       // CHW
    std::size_t image_floats_ = 0;
    std::chrono::steady_clock::time_point epoch_;

    // ----- request queue (guarded by queue_mu_) -----
    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<Request> queue_;
    bool stopping_ = false;

    // ----- instance pool -----
    std::vector<std::unique_ptr<Instance>> instances_;
    std::vector<std::thread> workers_;
    std::once_flag shutdown_once_;

    // ----- counters (guarded by stats_mu_) -----
    mutable std::mutex stats_mu_;
    ServerStats stats_;
};

}  // namespace ams::serve
