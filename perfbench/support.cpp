#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "runtime/thread_pool.hpp"
#include "perfbench.hpp"

namespace fs = std::filesystem;
using namespace ams;

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return values[std::min(index, values.size() - 1)];
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

// ----- spans -----------------------------------------------------------

int SpanLog::begin(const char* name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), now_ns(), 0});
    open_.push_back(id);
    return id;
}

void SpanLog::end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    // Spans are scoped, so the one closing is the innermost open one.
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::clear() {
    spans_.clear();
    open_.clear();
}

double SpanLog::total_s(const std::string& name) const {
    double total = 0.0;
    for (const double d : durations_s(name)) total += d;
    return total;
}

std::vector<double> SpanLog::durations_s(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
}

double SpanLog::uncovered_share() const {
    double roots = 0.0;
    double covered = 0.0;
    for (const Span& s : spans_) {
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        if (s.parent < 0) {
            roots += d;
        } else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
            covered += d;  // direct children of a root run one after another
        }
    }
    return roots > 0.0 ? 1.0 - covered / roots : 0.0;
}

SpanLog& spans() {
    static SpanLog log;
    return log;
}

// ----- results ----------------------------------------------------------

void Tally::check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

void Tally::attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: failed: " << what << "\n";
    }
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.name == name; });
}

double Metrics::value(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.name == name) return e.value;
    }
    throw std::out_of_range("no metric " + name);
}

std::string Metrics::json() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.10g", std::isfinite(e.value) ? e.value : 0.0);
        os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << value
           << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << "}";
    return os.str();
}

// ----- fixture ----------------------------------------------------------

namespace {

data::DatasetOptions dataset_options(const Options& opts) {
    data::DatasetOptions d;
    d.classes = config::kClasses;
    d.train_per_class = 1;  // the eval/serve phases use the validation split only
    d.val_per_class = config::kValPerClass;
    d.image_size = config::kImageSize;
    d.seed = mix64(opts.seed ^ 0xDA7A);
    return d;
}

models::LayerCommon quant_common(bool ams_on) {
    models::LayerCommon c;
    c.bits_w = config::kBits;
    c.bits_x = config::kBits;
    c.ams_enabled = ams_on;
    c.vmac.enob = config::kEnob;
    c.vmac.nmult = config::kNmult;
    c.vmac.bits_w = config::kBits;
    c.vmac.bits_x = config::kBits;
    c.mode = vmac::InjectionMode::kLumpedGaussian;
    return c;
}

/// The Fig. 8-style campaign: 2 backends x 2 ENOBs, one dataset seed,
/// sized like the sweep bench's quick grid.
sweep::SweepGrid sweep_grid(const Options& opts, const std::string& cache_dir) {
    sweep::SweepGrid grid;
    grid.backends = {vmac::BackendKind::kBitExact, vmac::BackendKind::kPerVmacNoise};
    grid.enobs = {4.5, 6.5};
    grid.seeds = {mix64(opts.seed ^ 0x5EE9) % 1000000};
    grid.base.dataset.classes = 6;
    grid.base.dataset.train_per_class = 32;
    grid.base.dataset.val_per_class = 12;
    grid.base.dataset.image_size = 12;
    grid.base.eval_passes = 3;
    grid.base.batch_size = 32;
    grid.base.fp32_train.epochs = 3;
    grid.base.fp32_train.batch_size = 32;
    grid.base.retrain.epochs = 2;
    grid.base.retrain.batch_size = 32;
    grid.base.cache_dir = cache_dir;
    return grid;
}

}  // namespace

std::unique_ptr<models::ResNet> make_ams_model(const Options& opts, float input_max_abs) {
    auto model = std::make_unique<models::ResNet>(models::mini_resnet_config(
        quant_common(true), config::kClasses, input_max_abs, mix64(opts.seed ^ 0xA115)));
    model->set_training(false);
    return model;
}

std::unique_ptr<Fixture> build_fixture(const Options& opts, const std::string& dir) {
    auto fx = std::make_unique<Fixture>();
    fx->dir = dir;
    fs::create_directories(dir);
    {
        ScopedSpan span("data.build_dataset");
        fx->data = std::make_unique<data::SyntheticImageNet>(dataset_options(opts));
    }
    const float max_abs = fx->data->max_abs_value();
    fx->ams_model = make_ams_model(opts, max_abs);
    fx->serve_model = std::make_unique<models::ResNet>(models::mini_resnet_config(
        quant_common(false), config::kClasses, max_abs, mix64(opts.seed ^ 0x5E4E)));
    fx->serve_model->set_training(false);

    const Tensor& val = fx->data->val_images();
    const Shape batch{config::kEvalBatch, val.dim(1), val.dim(2), val.dim(3)};
    compile::CompileOptions int8;
    int8.gemm_int = GemmIntMode::kInt8;
    {
        ScopedSpan span("compile.compile");
        fx->plan_fp32 = std::make_unique<compile::ExecutionPlan>(
            compile::compile(*fx->ams_model, batch, compile::CompileOptions{}));
    }
    {
        ScopedSpan span("compile.compile");
        fx->plan_int8 =
            std::make_unique<compile::ExecutionPlan>(compile::compile(*fx->ams_model, batch, int8));
    }

    // Sweep prerequisites: the fp32 -> quantized states every point of the
    // campaign starts from, trained into a warm cache that each timed
    // campaign copies (so campaigns start cold except for these).
    fx->grid = sweep_grid(opts, dir + "/warm-cache");
    // Trained on one executor, like the sweep workers that consume them:
    // tiny training batches gain nothing from more.
    runtime::ThreadPool::set_global_threads(1);
    {
        ScopedSpan span("train.sweep_prerequisites");
        for (const std::uint64_t seed : fx->grid.seeds) {
            core::ExperimentEnv env(fx->grid.options_for_seed(seed));
            (void)env.quantized_state(fx->grid.bits_w, fx->grid.bits_x);
        }
    }
    runtime::ThreadPool::set_global_threads(opts.cores);
    return fx;
}

// ----- process helpers --------------------------------------------------

double peak_rss_mb(std::size_t concurrent_children) {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    const double kb = static_cast<double>(self.ru_maxrss) +
                      static_cast<double>(concurrent_children) *
                          static_cast<double>(children.ru_maxrss);
    return kb / 1024.0;
}

void copy_dir_files(const std::string& from, const std::string& to) {
    fs::create_directories(to);
    for (const auto& entry : fs::directory_iterator(from)) {
        if (!entry.is_regular_file()) continue;
        fs::copy_file(entry.path(), fs::path(to) / entry.path().filename(),
                      fs::copy_options::overwrite_existing);
    }
}

}  // namespace perfbench
