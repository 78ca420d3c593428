#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "compile/plan.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"
#include "train/evaluate.hpp"

namespace ams::serve {

namespace metrics = runtime::metrics;

void ServerOptions::validate() const {
    if (instances == 0) throw std::invalid_argument("ServerOptions: instances must be > 0");
    if (max_batch == 0) throw std::invalid_argument("ServerOptions: max_batch must be > 0");
}

/// One queued request: an owned copy of the image plus the promise its
/// worker fulfills. Requests are moved (never copied) through the queue.
struct InferenceServer::Request {
    std::vector<float> image;
    std::promise<InferenceResult> promise;
    std::uint64_t enqueue_ns = 0;
};

/// One pool entry: an independent model replica, the ExecutionPlan
/// compiled over it at [max_batch, CHW], and the context its worker
/// thread runs that plan in. The worker also keeps its per-batch gather
/// vector here so the dispatch loop performs no steady-state allocations
/// of its own (result logits are per-request heap copies by contract —
/// they outlive the arena rewind).
struct InferenceServer::Instance {
    std::unique_ptr<nn::Module> model;
    compile::ExecutionPlan plan;  ///< raw pointers into *model
    runtime::EvalContext ctx;
    std::vector<const float*> gather;  ///< per-batch image pointers

    Instance(std::unique_ptr<nn::Module> m, compile::ExecutionPlan p, std::uint64_t ctx_seed)
        : model(std::move(m)), plan(std::move(p)), ctx(ctx_seed) {}
};

InferenceServer::InferenceServer(models::ResNet& primary, const Shape& image_shape,
                                 const ServerOptions& options)
    : InferenceServer(
          [&primary](std::size_t instance) -> std::unique_ptr<nn::Module> {
              return models::make_eval_replica(primary, instance);
          },
          image_shape, options) {}

InferenceServer::InferenceServer(InstanceFactory factory, const Shape& image_shape,
                                 const ServerOptions& options)
    : options_(options), image_shape_(image_shape), epoch_(std::chrono::steady_clock::now()) {
    options_.validate();
    if (image_shape_.rank() != 3) {
        throw std::invalid_argument("InferenceServer: image_shape must be CHW (rank 3)");
    }
    if (!factory) throw std::invalid_argument("InferenceServer: null instance factory");
    image_floats_ = image_shape_.numel();
    stats_.batch_size_histogram.assign(options_.max_batch + 1, 0);

    const Shape batch_shape{options_.max_batch, image_shape_.dim(0), image_shape_.dim(1),
                            image_shape_.dim(2)};
    instances_.reserve(options_.instances);
    for (std::size_t i = 0; i < options_.instances; ++i) {
        auto model = factory(i);
        if (!model) throw std::invalid_argument("InferenceServer: factory returned null model");
        model->set_training(false);
        // A graph the compiler cannot lower throws CompileError out of
        // the constructor: the plan is the only inference path.
        compile::CompileOptions copts;
        copts.gemm_int = env_gemm_int_mode();  // AMSNET_GEMM_INT (off by default)
        compile::ExecutionPlan plan = compile::compile(*model, batch_shape, copts);
        // Per-instance context seed: the context RNG root is not used by
        // the current module set (noise lives in module-owned streams),
        // but keep instances distinguishable for anything that does.
        instances_.push_back(std::make_unique<Instance>(std::move(model), std::move(plan),
                                                        options_.seed + 0x9E37 * (i + 1)));
        instances_.back()->gather.reserve(options_.max_batch);
    }
    start_workers();
}

InferenceServer::~InferenceServer() {
    shutdown();
}

std::uint64_t InferenceServer::now_ns() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - epoch_)
                                          .count());
}

void InferenceServer::start_workers() {
    workers_.reserve(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

std::future<InferenceResult> InferenceServer::submit(const float* image) {
    if (image == nullptr) throw std::invalid_argument("InferenceServer::submit: null image");
    Request req;
    req.image.assign(image, image + image_floats_);
    std::future<InferenceResult> future = req.promise.get_future();
    req.enqueue_ns = now_ns();
    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (stopping_) {
            throw std::runtime_error("InferenceServer::submit: server is shutting down");
        }
        queue_.push_back(std::move(req));
        depth = queue_.size();
    }
    queue_cv_.notify_one();
    metrics::add(metrics::Counter::kServeRequests);
    metrics::gauge_max(metrics::Gauge::kServeQueueDepthMax, depth);
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.submitted;
        stats_.max_queue_depth = std::max<std::uint64_t>(stats_.max_queue_depth, depth);
    }
    return future;
}

std::future<InferenceResult> InferenceServer::submit(const Tensor& image) {
    const bool chw = image.rank() == 3 && image.shape() == image_shape_;
    const bool nchw = image.rank() == 4 && image.dim(0) == 1 && image.dim(1) == image_shape_.dim(0) &&
                      image.dim(2) == image_shape_.dim(1) && image.dim(3) == image_shape_.dim(2);
    if (!chw && !nchw) {
        throw std::invalid_argument("InferenceServer::submit: image shape " + image.shape().str() +
                                    " does not match configured " + image_shape_.str());
    }
    return submit(image.data());
}

std::size_t InferenceServer::queue_depth() const {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return queue_.size();
}

ServerStats InferenceServer::stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

std::vector<InferenceServer::Request> InferenceServer::next_batch() {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return {};  // stopping_ && drained => exit

    std::vector<Request> batch;
    batch.reserve(options_.max_batch);
    auto take_available = [&] {
        while (!queue_.empty() && batch.size() < options_.max_batch) {
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
    };
    take_available();

    // Latency budget: wait for more work only while the batch is short,
    // the server is live, and the oldest member's budget has not expired.
    // While draining (stopping_), serve immediately with what we have.
    if (batch.size() < options_.max_batch && !stopping_ && options_.max_delay_us > 0) {
        const auto deadline = epoch_ + std::chrono::nanoseconds(batch.front().enqueue_ns) +
                              std::chrono::microseconds(options_.max_delay_us);
        while (batch.size() < options_.max_batch && !stopping_) {
            if (!queue_.empty()) {
                take_available();
                continue;
            }
            if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
        }
        take_available();
    }
    return batch;
}

void InferenceServer::run_batch(std::size_t instance_index, std::vector<Request>& batch) {
    Instance& instance = *instances_[instance_index];
    const std::size_t count = batch.size();
    const std::uint64_t dequeue_ns = now_ns();
    char tag[48];
    std::snprintf(tag, sizeof(tag), "size=%zu", count);
    runtime::trace::Span span("serve.batch", tag);

    std::uint64_t wait_ns = 0;
    for (const Request& r : batch) wait_ns += dequeue_ns - r.enqueue_ns;
    metrics::add(metrics::Counter::kServeBatches);
    metrics::add(metrics::Counter::kServeBatchImages, count);
    metrics::add(metrics::Counter::kServeQueueWaitNs, wait_ns);

    instance.gather.clear();
    for (const Request& r : batch) instance.gather.push_back(r.image.data());

    const runtime::TensorArena::Checkpoint cp = instance.ctx.checkpoint();
    try {
        const Tensor batch_tensor =
            train::assemble_batch(instance.gather.data(), count, image_shape_, instance.ctx);
        const Tensor logits = instance.plan.run(batch_tensor, instance.ctx);
        if (logits.rank() != 2 || logits.dim(0) != count) {
            throw std::runtime_error("InferenceServer: model produced logits of shape " +
                                     logits.shape().str() + " for a batch of " +
                                     std::to_string(count));
        }
        const std::size_t classes = logits.dim(1);
        for (std::size_t i = 0; i < count; ++i) {
            InferenceResult result;
            const float* row = logits.data() + i * classes;
            result.logits.assign(row, row + classes);
            result.predicted = static_cast<std::size_t>(
                std::max_element(row, row + classes) - row);
            result.timing.enqueue_ns = batch[i].enqueue_ns;
            result.timing.dequeue_ns = dequeue_ns;
            result.timing.complete_ns = now_ns();
            result.timing.batch_size = count;
            result.timing.instance = instance_index;
            batch[i].promise.set_value(std::move(result));
        }
    } catch (...) {
        const std::exception_ptr error = std::current_exception();
        for (Request& r : batch) r.promise.set_exception(error);
    }
    instance.ctx.rewind(cp);

    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.completed += count;
    ++stats_.batches;
    stats_.batched_images += count;
    stats_.queue_wait_ns += wait_ns;
    ++stats_.batch_size_histogram[count];
}

void InferenceServer::worker_loop(std::size_t instance_index) {
    const std::string label = "serve-" + std::to_string(instance_index);
    runtime::trace::set_thread_label(label.c_str());
    for (;;) {
        std::vector<Request> batch = next_batch();
        if (batch.empty()) return;
        run_batch(instance_index, batch);
    }
}

void InferenceServer::shutdown() {
    std::call_once(shutdown_once_, [this] {
        {
            std::lock_guard<std::mutex> lock(queue_mu_);
            stopping_ = true;
        }
        queue_cv_.notify_all();
        for (std::thread& t : workers_) t.join();
        // Every accepted request has been served: workers only exit on
        // (stopping_ && queue empty) and submissions are rejected after
        // stopping_ flips under the queue lock.
        (void)metrics::dump_snapshot_if_configured();
    });
}

}  // namespace ams::serve
