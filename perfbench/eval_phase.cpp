// ams_eval: the paper's evaluation protocol on one AMS-on 8b mini-ResNet,
// run three ways in interleaved rounds — train::evaluate_top1, the
// compiled fp32 plan, the compiled int8 plan — each reported as the
// median images/s over rounds.
#include <cmath>
#include <cstring>

#include "perfbench.hpp"
#include "train/evaluate.hpp"

using namespace ams;

namespace perfbench {

namespace {

constexpr std::size_t kMinRounds = 10;

/// One pass of the validation set through `plan`, batch by batch.
/// Returns a checksum of the logits so the work cannot be elided.
double plan_pass(compile::ExecutionPlan& plan, const Tensor& images, runtime::EvalContext& ctx,
                 const char* span_name) {
    double sink = 0.0;
    for (std::size_t start = 0; start < images.dim(0); start += config::kEvalBatch) {
        const std::size_t count = std::min(config::kEvalBatch, images.dim(0) - start);
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        {
            ScopedSpan span(span_name);
            const Tensor logits = plan.run(train::slice_batch(images, start, count, ctx), ctx);
            sink += logits[0];
        }
        ctx.rewind(cp);
    }
    return sink;
}

}  // namespace

void run_eval_phase(Fixture& fx, const Budget& budget, Tally& tally, Metrics& out) {
    ScopedSpan phase("phase.ams_eval");
    const Tensor& images = fx.data->val_images();
    const std::vector<std::size_t>& labels = fx.data->val_labels();
    const double n = static_cast<double>(images.dim(0));
    runtime::EvalContext eval_ctx;

    std::vector<double> eval_ips;
    std::vector<double> fp32_ips;
    std::vector<double> int8_ips;
    const Clock::time_point start = Clock::now();
    while (eval_ips.size() < kMinRounds || (budget.native && seconds_since(start) < budget.seconds)) {
        Clock::time_point t = Clock::now();
        double sink = 0.0;
        {
            ScopedSpan span("train.evaluate_top1");
            const train::EvalResult r =
                train::evaluate_top1(*fx.ams_model, images, labels, config::kEvalBatch, 1, &eval_ctx);
            sink += r.mean;
        }
        eval_ips.push_back(n / seconds_since(t));

        t = Clock::now();
        sink += plan_pass(*fx.plan_fp32, images, fx.ctx, "compile.plan_fp32.run");
        fp32_ips.push_back(n / seconds_since(t));

        t = Clock::now();
        sink += plan_pass(*fx.plan_int8, images, fx.ctx, "compile.plan_int8.run");
        int8_ips.push_back(n / seconds_since(t));
        tally.attempt(std::isfinite(sink), "ams_eval round produced non-finite logits");
    }
    out.set("eval_ips", median(eval_ips), "1/s");
    out.set("plan_fp32_ips", median(fp32_ips), "1/s");
    out.set("plan_int8_ips", median(int8_ips), "1/s");
    out.set("ams_eval.images", 3.0 * n * static_cast<double>(eval_ips.size()), "count");
}

void check_eval(Fixture& fx, const Options& opts, Tally& tally) {
    const Tensor& images = fx.data->val_images();
    const std::vector<std::size_t>& labels = fx.data->val_labels();
    runtime::EvalContext& ctx = fx.ctx;
    const std::size_t classes = config::kClasses;
    const std::size_t batch = config::kEvalBatch;

    // With injection off, the fp32 plan equals the shared batch -> logits
    // path bit for bit, and the int8 plan stays within the requantization
    // tolerance of the fp32 plan.
    fx.ams_model->set_ams_enabled(false);
    {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        const Tensor x = train::slice_batch(images, 0, batch, ctx);
        const Tensor ref = train::forward_batch(*fx.ams_model, x, ctx);
        const Tensor fp32 = fx.plan_fp32->run(x, ctx);
        const Tensor int8 = fx.plan_int8->run(x, ctx);
        tally.check(ref.size() == batch * classes && fp32.size() == ref.size() &&
                        std::memcmp(ref.data(), fp32.data(), ref.size() * sizeof(float)) == 0,
                    "fp32 plan logits differ from train::forward_batch");
        float worst = 0.0f;
        for (std::size_t i = 0; i < fp32.size() && i < int8.size(); ++i) {
            worst = std::max(worst, std::fabs(fp32[i] - int8[i]));
        }
        tally.check(int8.size() == fp32.size() && worst <= 1e-4f,
                    "int8 plan logits off the fp32 plan by " + std::to_string(worst));
        ctx.rewind(cp);
    }
    fx.ams_model->set_ams_enabled(true);

    // With AMS on, identically seeded models repeat every pass exactly.
    auto a = make_ams_model(opts, fx.data->max_abs_value());
    auto b = make_ams_model(opts, fx.data->max_abs_value());
    const train::EvalResult ra = train::evaluate_top1(*a, images, labels, batch, 2);
    const train::EvalResult rb = train::evaluate_top1(*b, images, labels, batch, 2);
    tally.check(ra.passes == rb.passes, "AMS-on per-pass accuracies do not repeat");
}

}  // namespace perfbench
