#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"

namespace ams::core {

bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && std::string(v) == "1";
}

ExperimentOptions ExperimentOptions::standard() {
    ExperimentOptions opts;
    const bool fast = env_flag("REPRO_FAST");
    opts.verbose = env_flag("AMSNET_VERBOSE");

    opts.dataset.classes = 10;
    opts.dataset.train_per_class = fast ? 60 : 200;
    opts.dataset.val_per_class = fast ? 20 : 50;
    opts.dataset.image_size = 16;
    opts.dataset.channels = 3;
    opts.dataset.noise_sigma = 0.4f;
    opts.dataset.seed = 0x1337C0DEULL;

    opts.eval_passes = 5;
    opts.batch_size = 64;

    opts.fp32_train.epochs = fast ? 4 : 16;
    opts.fp32_train.batch_size = opts.batch_size;
    opts.fp32_train.patience = 4;
    opts.fp32_train.sgd = {/*lr=*/0.05f, /*momentum=*/0.9f, /*weight_decay=*/5e-4f};
    opts.fp32_train.shuffle_seed = 99;

    // The paper retrains with a fixed small learning rate and no schedule.
    opts.retrain.epochs = fast ? 3 : 8;
    opts.retrain.batch_size = opts.batch_size;
    opts.retrain.patience = 3;
    opts.retrain.sgd = {/*lr=*/0.01f, /*momentum=*/0.9f, /*weight_decay=*/0.0f};
    opts.retrain.shuffle_seed = 177;

    opts.cache_dir = train::default_cache_dir();
    return opts;
}

ExperimentEnv::ExperimentEnv(ExperimentOptions options)
    : options_(std::move(options)), dataset_(options_.dataset) {}

models::LayerCommon ExperimentEnv::fp32_common() const {
    models::LayerCommon c;
    c.bits_w = quant::kFloatBits;
    c.bits_x = quant::kFloatBits;
    c.ams_enabled = false;
    return c;
}

models::LayerCommon ExperimentEnv::quant_common(std::size_t bits_w, std::size_t bits_x) const {
    models::LayerCommon c;
    c.bits_w = bits_w;
    c.bits_x = bits_x;
    c.ams_enabled = false;
    return c;
}

models::LayerCommon ExperimentEnv::ams_common(std::size_t bits_w, std::size_t bits_x,
                                              const vmac::VmacConfig& vmac_cfg,
                                              vmac::InjectionMode mode,
                                              const vmac::DeviceProfile& device) const {
    models::LayerCommon c;
    c.bits_w = bits_w;
    c.bits_x = bits_x;
    c.ams_enabled = true;
    c.vmac = vmac_cfg;
    c.mode = mode;
    c.device = device;
    return c;
}

std::unique_ptr<models::ResNet> ExperimentEnv::make_model(
    const models::LayerCommon& common) const {
    return std::make_unique<models::ResNet>(models::mini_resnet_config(
        common, options_.dataset.classes, dataset_.max_abs_value(), /*seed=*/42));
}

std::string ExperimentEnv::base_key() const {
    std::ostringstream os;
    os << "mini_c" << options_.dataset.classes << "_t" << options_.dataset.train_per_class
       << "_v" << options_.dataset.val_per_class << "_s" << options_.dataset.image_size
       << "_seed" << options_.dataset.seed;
    return os.str();
}

namespace {

// Canonical serialization of one training schedule into a content key.
// Every field that steers fit() is included; forgetting one here is the
// stale-cache bug the content hash exists to prevent.
void add_schedule(train::CacheKey& key, const std::string& prefix,
                  const train::TrainOptions& t) {
    key.add(prefix + ".epochs", t.epochs);
    key.add(prefix + ".batch_size", t.batch_size);
    key.add(prefix + ".patience", t.patience);
    key.add(prefix + ".grad_bits", t.grad_bits);
    key.add(prefix + ".shuffle_seed", std::uint64_t{t.shuffle_seed});
    key.add(prefix + ".lr", static_cast<double>(t.sgd.lr));
    key.add(prefix + ".momentum", static_cast<double>(t.sgd.momentum));
    key.add(prefix + ".weight_decay", static_cast<double>(t.sgd.weight_decay));
}

}  // namespace

train::CacheKey ExperimentEnv::fp32_cache_key() const {
    train::CacheKey key;
    key.label(base_key() + "_fp32");
    key.add("schema", "amsnet-ckpt-key-v1");
    key.add("arch", "mini_resnet");
    key.add("model_seed", std::uint64_t{42});
    key.add("data.classes", options_.dataset.classes);
    key.add("data.train_per_class", options_.dataset.train_per_class);
    key.add("data.val_per_class", options_.dataset.val_per_class);
    key.add("data.image_size", options_.dataset.image_size);
    key.add("data.channels", options_.dataset.channels);
    key.add("data.noise_sigma", static_cast<double>(options_.dataset.noise_sigma));
    key.add("data.seed", std::uint64_t{options_.dataset.seed});
    key.add("phase", "fp32");
    add_schedule(key, "fp32_train", options_.fp32_train);
    return key;
}

train::CacheKey ExperimentEnv::quantized_cache_key(std::size_t bits_w,
                                                   std::size_t bits_x) const {
    std::ostringstream label;
    label << base_key() << "_q_w" << bits_w << "_x" << bits_x;
    train::CacheKey key;
    key.label(label.str());
    key.add("schema", "amsnet-ckpt-key-v1");
    key.add("parent", fp32_cache_key().hex());
    key.add("phase", "quant");
    key.add("bits_w", bits_w);
    key.add("bits_x", bits_x);
    add_schedule(key, "retrain", options_.retrain);
    return key;
}

train::CacheKey ExperimentEnv::ams_cache_key(std::size_t bits_w, std::size_t bits_x,
                                             const vmac::VmacConfig& vmac_cfg,
                                             const std::vector<models::LayerGroup>& frozen,
                                             const std::string& key_tag) const {
    std::ostringstream label;
    label << base_key() << "_ams_w" << bits_w << "_x" << bits_x << "_enob" << vmac_cfg.enob
          << "_nm" << vmac_cfg.nmult;
    if (!key_tag.empty()) label << "_b" << key_tag;
    for (models::LayerGroup g : frozen) label << "_f" << static_cast<int>(g);

    train::CacheKey key;
    key.label(label.str());
    key.add("schema", "amsnet-ckpt-key-v1");
    key.add("parent", quantized_cache_key(bits_w, bits_x).hex());
    key.add("phase", "ams");
    key.add("bits_w", bits_w);
    key.add("bits_x", bits_x);
    key.add("vmac.enob", vmac_cfg.enob);
    key.add("vmac.nmult", vmac_cfg.nmult);
    key.add("vmac.accumulation",
            vmac_cfg.accumulation == vmac::Accumulation::kSum ? "sum" : "avg");
    key.add("backend", key_tag.empty() ? std::string("default") : key_tag);
    std::ostringstream frozen_tag;
    for (models::LayerGroup g : frozen) frozen_tag << static_cast<int>(g) << ",";
    key.add("frozen", frozen_tag.str());
    add_schedule(key, "retrain", options_.retrain);
    return key;
}

TensorMap ExperimentEnv::train_from(const TensorMap* init_state,
                                    const models::LayerCommon& common,
                                    const train::TrainOptions& train_opts,
                                    const std::vector<models::LayerGroup>& frozen,
                                    const std::string& phase_name) {
    auto model = make_model(common);
    if (init_state != nullptr) model->load_state("", *init_state);
    for (models::LayerGroup g : frozen) model->set_group_frozen(g, true);

    train::TrainOptions opts = train_opts;
    if (options_.verbose) {
        opts.on_epoch = [&phase_name](std::size_t epoch, double loss, double acc) {
            std::cerr << "[" << phase_name << "] epoch " << epoch << " loss " << loss
                      << " val top-1 " << acc << "\n";
        };
    }
    const train::TrainResult result =
        fit(*model, dataset_.train_images(), dataset_.train_labels(), dataset_.val_images(),
            dataset_.val_labels(), opts);
    return result.best_state;
}

TensorMap ExperimentEnv::fp32_state() {
    return train::cached_state(options_.cache_dir, fp32_cache_key(), [this] {
        return train_from(nullptr, fp32_common(), options_.fp32_train, {}, "fp32");
    });
}

TensorMap ExperimentEnv::quantized_state(std::size_t bits_w, std::size_t bits_x) {
    return train::cached_state(
        options_.cache_dir, quantized_cache_key(bits_w, bits_x), [this, bits_w, bits_x] {
            const TensorMap fp32 = fp32_state();
            return train_from(&fp32, quant_common(bits_w, bits_x), options_.retrain, {},
                              "quant_w" + std::to_string(bits_w) + "x" +
                                  std::to_string(bits_x));
        });
}

TensorMap ExperimentEnv::ams_retrained_state(std::size_t bits_w, std::size_t bits_x,
                                             const vmac::VmacConfig& vmac_cfg,
                                             const std::vector<models::LayerGroup>& frozen,
                                             const std::string& key_tag,
                                             const vmac::DeviceProfile& device) {
    if (device.active() && key_tag.empty()) {
        // A silent key collision with the pure-Gaussian lineage would
        // serve chip-retrained weights to chip-free callers (and vice
        // versa) — refuse rather than corrupt the cache.
        throw std::invalid_argument(
            "ams_retrained_state: an active DeviceProfile requires a key_tag "
            "encoding it (e.g. BackendOptions::str())");
    }
    return train::cached_state(
        options_.cache_dir, ams_cache_key(bits_w, bits_x, vmac_cfg, frozen, key_tag),
        [this, bits_w, bits_x, &vmac_cfg, &frozen, &device] {
            const TensorMap quant = quantized_state(bits_w, bits_x);
            return train_from(&quant,
                              ams_common(bits_w, bits_x, vmac_cfg,
                                         vmac::InjectionMode::kLumpedGaussian, device),
                              options_.retrain, frozen,
                              "ams_enob" + std::to_string(vmac_cfg.enob));
        });
}

train::EvalResult ExperimentEnv::evaluate_state(const TensorMap& state,
                                                const models::LayerCommon& common,
                                                runtime::EvalContext* ctx) {
    auto model = make_model(common);
    model->load_state("", state);
    return train::evaluate_top1(*model, dataset_.val_images(), dataset_.val_labels(),
                                options_.batch_size, options_.eval_passes, ctx);
}

ExperimentEnv::EnobSweepPoint ExperimentEnv::compute_enob_point(
    std::size_t bits_w, std::size_t bits_x, double enob, const EnobSweepOptions& sweep,
    const TensorMap& quant, runtime::EvalContext* ctx) {
    char tag[runtime::trace::Event::kTagCapacity + 1];
    tag[0] = '\0';
    if (runtime::metrics::spans_enabled()) {
        std::snprintf(tag, sizeof(tag), "enob=%.3g", enob);
    }
    runtime::trace::Span point_span("ams_enob_sweep.point", tag);
    vmac::VmacConfig cfg;
    cfg.enob = enob;
    cfg.nmult = sweep.nmult;
    EnobSweepPoint point;
    point.enob = enob;

    // Map the grid resolution through the hardware backend: the
    // injected network-level error uses the backend's equivalent
    // monolithic ENOB (Eq. 2 equivalence). The default bit-exact
    // backend keeps the historical identity mapping and keys.
    std::string key_tag;
    const vmac::DeviceProfile& device = sweep.backend.variation;
    if (sweep.backend.kind == vmac::BackendKind::kBitExact && !device.active()) {
        point.effective_enob = enob;
    } else {
        vmac::BackendOptions bopts = sweep.backend;
        vmac::VmacConfig backend_cfg = cfg;
        backend_cfg.bits_w = bits_w;
        backend_cfg.bits_x = bits_x;
        if (bopts.kind == vmac::BackendKind::kPartitioned) {
            bopts.partition.enob_partial = enob;
        }
        // The (possibly variation-decorated) backend reports the composed
        // equivalent ENOB — the figure the reports carry.
        const auto backend = vmac::make_backend(backend_cfg, sweep.analog, bopts);
        point.effective_enob =
            std::clamp(backend->effective_enob(sweep.backend_ref_chunks), 0.5, 32.0);
        key_tag = bopts.str();
        if (device.active()) {
            // The injected *stochastic* Gaussian uses the bare datapath's
            // equivalent only: the chip statics (offset field, drift
            // gain) are applied explicitly by the injectors' device
            // pre-pass, so folding them into the Gaussian too would
            // count them twice.
            vmac::BackendOptions bare = bopts;
            bare.variation = {};
            const auto inner = vmac::make_backend(backend_cfg, sweep.analog, bare);
            cfg.enob = std::clamp(inner->effective_enob(sweep.backend_ref_chunks), 0.5, 32.0);
        } else {
            cfg.enob = point.effective_enob;
        }
    }

    const auto common = [&] {
        return ams_common(bits_w, bits_x, cfg, vmac::InjectionMode::kLumpedGaussian, device);
    };
    if (sweep.eval_only) {
        point.eval_only = evaluate_state(quant, common(), ctx);
    }
    if (sweep.retrain) {
        const TensorMap state = ams_retrained_state(bits_w, bits_x, cfg, {}, key_tag, device);
        point.retrained = evaluate_state(state, common(), ctx);
    }
    return point;
}

std::vector<ExperimentEnv::EnobSweepPoint> ExperimentEnv::ams_enob_sweep(
    std::size_t bits_w, std::size_t bits_x, const std::vector<double>& enobs,
    const EnobSweepOptions& sweep) {
    runtime::trace::Span sweep_span("ams_enob_sweep");
    // Materialize the shared prerequisite chain (fp32 -> quantized) once,
    // before fanning out, so points don't duplicate the common training.
    const TensorMap quant = [&] {
        runtime::trace::Span prereq_span("ams_enob_sweep.prerequisites");
        return quantized_state(bits_w, bits_x);
    }();

    // Grain 1: each ENOB point is one unit of work — a full retrain plus
    // multi-pass evaluation — and the pool balances them by stealing.
    // Every point builds its own models from fixed seeds and writes only
    // its own slot, so the sweep result is independent of scheduling.
    std::vector<EnobSweepPoint> points(enobs.size());
    runtime::parallel_for(0, enobs.size(), 1, [&](std::size_t p_begin, std::size_t p_end) {
        // One evaluation context per worker invocation: its arenas warm up
        // on the first point and are rewound (not freed) between batches,
        // so every later point in the chunk evaluates allocation-free.
        runtime::EvalContext ctx;
        for (std::size_t p = p_begin; p < p_end; ++p) {
            points[p] = compute_enob_point(bits_w, bits_x, enobs[p], sweep, quant, &ctx);
        }
    });
    return points;
}

}  // namespace ams::core
