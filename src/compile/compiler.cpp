// Plan construction: the typed structure walk, epilogue fusion, optional
// BN folding, liveness-based arena layout, and the textual IR dump.
// Execution lives in executor.cpp.
#include "compile/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "models/blocks.hpp"
#include "models/fold.hpp"
#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "quant/dorefa.hpp"
#include "quant/quant_modules.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace ams::compile {

namespace {

namespace metrics = runtime::metrics;

/// Arena slots are 16-float (64-byte) aligned so every value base has the
/// same alignment class as a fresh arena allocation — a precondition
/// of the whole-tensor bit-identity argument for SIMD elementwise tails.
std::size_t align16(std::size_t n) {
    return (n + 15) / 16 * 16;
}

bool has_tail(StepKind kind) {
    return kind == StepKind::kConv || kind == StepKind::kVmacConv || kind == StepKind::kLinear;
}

/// True for tail ops that replace a whole layer (and its output buffer);
/// kBias / kRecord are parts of their parent layer.
bool counts_as_layer(EwOp::Kind kind) {
    return kind == EwOp::Kind::kInject || kind == EwOp::Kind::kBatchNorm ||
           kind == EwOp::Kind::kRelu || kind == EwOp::Kind::kClippedRelu ||
           kind == EwOp::Kind::kQuantAct;
}

const char* ew_name(EwOp::Kind kind) {
    switch (kind) {
        case EwOp::Kind::kInject: return "inject";
        case EwOp::Kind::kRecord: return "record";
        case EwOp::Kind::kBatchNorm: return "bn";
        case EwOp::Kind::kBias: return "bias";
        case EwOp::Kind::kRelu: return "relu";
        case EwOp::Kind::kClippedRelu: return "clipped_relu";
        case EwOp::Kind::kQuantAct: return "quant_act";
    }
    return "?";
}

/// Integer-mode eligibility for one conv GEMM (DESIGN.md §14): unsigned
/// activation codes (vpmaddubsw takes one unsigned operand), both code
/// magnitudes <= 127, and the int32 accumulator bound over the patch
/// depth.
bool int8_eligible(std::size_t w_levels, const quant::QuantGrid& act, std::size_t patch) {
    return !act.is_signed && w_levels <= 127 && act.levels <= 127 &&
           int_accumulator_safe(w_levels, act.levels, patch);
}

const char* step_name(StepKind kind) {
    switch (kind) {
        case StepKind::kQuantInput: return "quant_input";
        case StepKind::kConv: return "conv";
        case StepKind::kVmacConv: return "vmac_conv";
        case StepKind::kLinear: return "linear";
        case StepKind::kElementwise: return "elementwise";
        case StepKind::kMaxPool: return "maxpool";
        case StepKind::kGlobalAvgPool: return "global_avg_pool";
        case StepKind::kResidualAdd: return "residual_add";
    }
    return "?";
}

/// Builds a Program by walking the module graph in exactly the order the
/// modules' forward visits it, emitting flat steps.
class Builder {
public:
    Builder(nn::Module& root, const Shape& input, const CompileOptions& options) {
        p_.input_shape = input;
        p_.root_name = root.name();
        p_.options = options;
        Value in;
        in.shape = input;
        in.external = true;
        in.label = "input";
        p_.values.push_back(std::move(in));
        cur_ = 0;
    }

    Program build(nn::Module& root) {
        lower(root);
        p_.output_value = cur_;
        assign_offsets();
        p_.stats.steps = p_.steps.size();
        p_.stats.plan_floats = p_.arena_floats;
        return std::move(p_);
    }

private:
    // ----- value / step bookkeeping -----

    Shape shape_of(int v) const { return p_.values[v].shape; }

    int new_value(Shape shape, std::string label) {
        Value v;
        v.shape = std::move(shape);
        v.def_step = static_cast<int>(p_.steps.size());
        v.last_use = v.def_step;
        v.label = std::move(label);
        p_.values.push_back(std::move(v));
        return static_cast<int>(p_.values.size()) - 1;
    }

    void use(int v) {
        if (v >= 0) {
            p_.values[v].last_use =
                std::max(p_.values[v].last_use, static_cast<int>(p_.steps.size()));
        }
    }

    void push(Step s) {
        use(s.in);
        use(s.in2);
        use(s.out);
        p_.steps.push_back(std::move(s));
    }

    bool pinned(int v) const { return pinned_.count(v) != 0; }

    // ----- value grid tracking (integer numeric domain) -----
    //
    // grids_[v] describes the grid of value v's *contents at the current
    // program point*: set when the last write is QuantInput / QuantAct,
    // cleared when any other write lands on it. Value ids are never
    // reused, so fresh values can't inherit stale grids.

    const quant::QuantGrid* grid_of(int v) const {
        const auto it = grids_.find(v);
        return it == grids_.end() ? nullptr : &it->second;
    }

    void set_grid(int v, quant::QuantGrid g) { grids_[v] = g; }
    void clear_grid(int v) { grids_.erase(v); }

    /// Grid effect of one elementwise write onto `v`. kRecord only reads;
    /// kQuantAct re-establishes the unsigned activation grid; everything
    /// else (bn, bias, relu, inject, ...) takes the value off-grid. An
    /// injector may be toggled after compile, so kInject conservatively
    /// clears even though a tail ending in kQuantAct re-grids anyway.
    void apply_grid_effect(const EwOp& op, int v) {
        if (op.kind == EwOp::Kind::kRecord) return;
        if (op.kind == EwOp::Kind::kQuantAct && op.bits < quant::kFloatBits) {
            set_grid(v, quant::QuantGrid{op.levels, /*is_signed=*/false});
            return;
        }
        clear_grid(v);
    }

    // ----- owned weight storage -----

    const float* own_copy(const Tensor& t) {
        p_.owned.emplace_back(t.data(), t.data() + t.size());
        return p_.owned.back().data();
    }

    /// Pre-quantizes `w` on the DoReFa grid for bits < 32 (bit-for-bit
    /// the per-call quantization of the quantized layers' forward); aliasing of latent
    /// FP32 weights is the caller's choice.
    const float* own_quantized(const Tensor& w, std::size_t bits) {
        p_.owned.emplace_back(w.size());
        quant::dorefa_quantize_weights_into(w, bits, p_.owned.back().data());
        return p_.owned.back().data();
    }

    // ----- elementwise emission (fusion pass) -----

    /// Emits one elementwise layer: fused into the preceding step's tail
    /// when legal, else standalone (in place when its input has no later
    /// use). Stats::module_walk_floats counts the buffer a per-layer
    /// forward would allocate for it.
    void emit_ew(EwOp op, const std::string& label) {
        const bool is_record = op.kind == EwOp::Kind::kRecord;
        if (!is_record) p_.stats.module_walk_floats += shape_of(cur_).numel();
        const bool fusible = (p_.options.fuse || is_record) && !p_.steps.empty() &&
                             has_tail(p_.steps.back().kind) && p_.steps.back().out == cur_ &&
                             !pinned(cur_);
        if (fusible) {
            apply_grid_effect(op, cur_);
            p_.steps.back().tail.push_back(op);
            if (counts_as_layer(op.kind)) {
                ++p_.stats.layers_fused;
                ++p_.stats.intermediates_eliminated;
            }
            return;
        }
        Step s;
        s.kind = StepKind::kElementwise;
        s.ew = op;
        s.in = cur_;
        s.label = label;
        const bool in_place =
            is_record ||
            (p_.options.fuse && !pinned(cur_) && !p_.values[cur_].external);
        if (in_place) {
            s.out = cur_;
            if (counts_as_layer(op.kind)) ++p_.stats.intermediates_eliminated;
        } else {
            s.out = new_value(shape_of(cur_), label);
        }
        const int out = s.out;
        apply_grid_effect(s.ew, out);
        push(std::move(s));
        cur_ = out;
    }

    // ----- module lowering -----

    void lower(nn::Module& m) {
        if (auto* net = dynamic_cast<models::ResNet*>(&m)) return lower_resnet(*net);
        if (auto* blk = dynamic_cast<models::BottleneckBlock*>(&m)) return lower_bottleneck(*blk);
        if (auto* blk = dynamic_cast<models::BasicBlock*>(&m)) return lower_basic(*blk);
        if (auto* unit = dynamic_cast<models::ConvUnit*>(&m)) return lower_conv_unit(*unit);
        if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
            for (std::size_t i = 0; i < seq->size(); ++i) lower(seq->child(i));
            return;
        }
        if (auto* qi = dynamic_cast<quant::QuantInput*>(&m)) return lower_quant_input(*qi);
        if (auto* qa = dynamic_cast<quant::QuantAct*>(&m)) {
            EwOp op;
            op.kind = EwOp::Kind::kQuantAct;
            op.bits = qa->bits();
            op.levels = qa->bits() < quant::kFloatBits ? quant::magnitude_levels(qa->bits()) : 1;
            return emit_ew(op, "quant_act");
        }
        if (dynamic_cast<nn::ReLU*>(&m) != nullptr) {
            EwOp op;
            op.kind = EwOp::Kind::kRelu;
            return emit_ew(op, "relu");
        }
        if (auto* cr = dynamic_cast<nn::ClippedReLU*>(&m)) {
            EwOp op;
            op.kind = EwOp::Kind::kClippedRelu;
            op.ceiling = cr->ceiling();
            return emit_ew(op, "clipped_relu");
        }
        if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
            EwOp op;
            op.kind = EwOp::Kind::kBatchNorm;
            op.bn = bn;
            return emit_ew(op, "bn");
        }
        if (auto* inj = dynamic_cast<vmac::ErrorInjector*>(&m)) {
            EwOp op;
            op.kind = EwOp::Kind::kInject;
            op.injector = inj;
            return emit_ew(op, "inject");
        }
        if (auto* vc = dynamic_cast<vmac::VmacConv2d*>(&m)) return lower_vmac(*vc);
        if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&m)) return lower_maxpool(*mp);
        if (auto* gap = dynamic_cast<nn::GlobalAvgPool*>(&m)) return lower_gap(*gap);
        if (auto* qc = dynamic_cast<quant::QuantConv2d*>(&m)) {
            return lower_conv(qc->conv(), qc->bits_w(), nullptr, "conv");
        }
        if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
            return lower_conv(*conv, quant::kFloatBits, nullptr, "conv");
        }
        if (auto* ql = dynamic_cast<quant::QuantLinear*>(&m)) {
            return lower_linear(ql->linear(), ql->bits_w());
        }
        if (auto* lin = dynamic_cast<nn::Linear*>(&m)) {
            return lower_linear(*lin, quant::kFloatBits);
        }
        throw CompileError("compile: unsupported module type '" + m.name() + "'");
    }

    void lower_quant_input(quant::QuantInput& qi) {
        Step s;
        s.kind = StepKind::kQuantInput;
        s.in = cur_;
        s.inv_scale = 1.0f / qi.max_abs_input();
        s.bits = qi.bits();
        s.levels = qi.bits() < quant::kFloatBits ? quant::magnitude_levels(qi.bits()) : 1;
        s.label = "quant_input";
        s.out = new_value(shape_of(cur_), "quant_input");
        p_.stats.module_walk_floats += shape_of(cur_).numel();
        const int out = s.out;
        if (s.bits < quant::kFloatBits) {
            set_grid(out, quant::QuantGrid{s.levels, /*is_signed=*/true});
        }
        push(std::move(s));
        cur_ = out;
    }

    /// Emits one eval-mode convolution through the shared conv executor.
    /// `folded_bias` is the digital bias of a BN fold (null otherwise).
    void lower_conv(nn::Conv2d& conv, std::size_t bits_w, const Tensor* fold_weight,
                    const std::string& label, const float* folded_bias = nullptr) {
        const nn::Conv2dOptions& o = conv.options();
        const Shape in_shape = shape_of(cur_);
        if (in_shape.rank() != 4 || in_shape.dim(1) != o.in_channels) {
            throw CompileError("compile: conv expects NCHW with " +
                               std::to_string(o.in_channels) + " channels, got " +
                               in_shape.str());
        }
        ConvGeometry g{o.in_channels, in_shape.dim(2), in_shape.dim(3), o.kernel, o.kernel,
                       o.stride,      o.stride,        o.padding,       o.padding};
        g.validate();
        const ConvLowering low(g);

        Step s;
        s.kind = StepKind::kConv;
        s.lowering = low;
        s.out_channels = o.out_channels;
        s.scratch_owner = &conv;
        const Tensor& latent = fold_weight != nullptr ? *fold_weight : conv.weight().value;
        if (bits_w < quant::kFloatBits) {
            s.weight = own_quantized(latent, bits_w);
            // Integer numeric domain: eligible when this conv's input is
            // known to sit on an unsigned grid that fits 8-bit codes. The
            // codes are encoded once here, from the same owned
            // quantized-float weights the fp32 path multiplies.
            if (p_.options.gemm_int == GemmIntMode::kInt8) {
                const quant::QuantGrid* in_grid = grid_of(cur_);
                const std::size_t w_levels = quant::magnitude_levels(bits_w);
                if (in_grid != nullptr && int8_eligible(w_levels, *in_grid, low.patch_size())) {
                    p_.owned_codes.emplace_back(p_.owned.back().data(), latent.size(),
                                                quant::QuantGrid{w_levels, /*is_signed=*/true});
                    s.numeric = NumericMode::kInt8;
                    s.weight_i8 = p_.owned_codes.back().view().i8;
                    s.act_levels = in_grid->levels;
                    s.dequant = 1.0f / (static_cast<float>(w_levels) *
                                        static_cast<float>(in_grid->levels));
                }
            }
        } else if (fold_weight != nullptr) {
            s.weight = own_copy(latent);
        } else {
            s.weight = latent.data();
        }
        if (folded_bias != nullptr) {
            EwOp b;
            b.kind = EwOp::Kind::kBias;
            b.bias = folded_bias;
            s.tail.push_back(b);
        } else if (conv.bias() != nullptr) {
            // The layer's own digital bias is part of the conv step, not
            // of the fusion pass (Conv2d::forward adds it per image right
            // after the GEMM too).
            EwOp b;
            b.kind = EwOp::Kind::kBias;
            b.bias = conv.bias()->value.data();
            s.tail.push_back(b);
        }
        s.in = cur_;
        s.label = label;
        s.out = new_value(Shape{in_shape.dim(0), o.out_channels, low.out_h(), low.out_w()},
                          label);
        p_.stats.module_walk_floats += shape_of(s.out).numel();
        const int out = s.out;
        push(std::move(s));
        cur_ = out;
    }

    void lower_conv_unit(models::ConvUnit& unit) {
        quant::QuantConv2d& qc = unit.conv();
        const std::size_t bits_w = qc.bits_w();
        const float* fold_bias = nullptr;
        Tensor folded_weight;
        if (p_.options.fold_bn) {
            models::FoldedConv folded = models::fold_bn_into_conv(
                qc.conv().weight().value, unit.bn(), unit.bn().eps());
            fold_bias = own_copy(folded.bias);
            folded_weight = std::move(folded.weight);
        }
        lower_conv(qc.conv(), bits_w, p_.options.fold_bn ? &folded_weight : nullptr,
                   "conv_unit", fold_bias);

        // Same epilogue order as ConvUnit::forward: inject, record, then
        // batch norm — or, under fold_bn, the digital bias already rides
        // the conv step and the batch norm disappears.
        EwOp inject;
        inject.kind = EwOp::Kind::kInject;
        inject.injector = &unit.injector();
        emit_ew(inject, "inject");
        // A per-layer forward copies the injector's output whether or not
        // it is enabled.
        EwOp record;
        record.kind = EwOp::Kind::kRecord;
        record.unit = &unit;
        emit_ew(record, "record");
        if (!p_.options.fold_bn) {
            EwOp bn;
            bn.kind = EwOp::Kind::kBatchNorm;
            bn.bn = &unit.bn();
            emit_ew(bn, "bn");
        } else {
            // Per-layer accounting still sees the BN output the plan no
            // longer needs to materialize.
            p_.stats.module_walk_floats += shape_of(cur_).numel();
            ++p_.stats.layers_fused;
            ++p_.stats.intermediates_eliminated;
        }
    }

    void lower_vmac(vmac::VmacConv2d& vc) {
        const Shape out_shape = vc.output_shape(shape_of(cur_));
        Step s;
        s.kind = StepKind::kVmacConv;
        s.vmac = &vc;
        s.in = cur_;
        s.label = "vmac_conv";
        s.out = new_value(out_shape, "vmac_conv");
        p_.stats.module_walk_floats += out_shape.numel();
        const int out = s.out;
        push(std::move(s));
        cur_ = out;
    }

    void lower_maxpool(nn::MaxPool2d& mp) {
        const Shape out_shape = mp.out_shape(shape_of(cur_));
        Step s;
        s.kind = StepKind::kMaxPool;
        s.maxpool = &mp;
        s.in = cur_;
        s.label = "maxpool";
        s.out = new_value(out_shape, "maxpool");
        p_.stats.module_walk_floats += out_shape.numel();
        const int out = s.out;
        // Max over on-grid values picks one of them, so the grid survives.
        if (const quant::QuantGrid* g = grid_of(s.in)) set_grid(out, *g);
        push(std::move(s));
        cur_ = out;
    }

    void lower_gap(nn::GlobalAvgPool&) {
        const Shape in_shape = shape_of(cur_);
        if (in_shape.rank() != 4) {
            throw CompileError("compile: GlobalAvgPool expects NCHW, got " + in_shape.str());
        }
        Step s;
        s.kind = StepKind::kGlobalAvgPool;
        s.in = cur_;
        s.label = "gap";
        s.out = new_value(Shape{in_shape.dim(0), in_shape.dim(1)}, "gap");
        p_.stats.module_walk_floats += shape_of(s.out).numel();
        const int out = s.out;
        push(std::move(s));
        cur_ = out;
    }

    void lower_linear(nn::Linear& lin, std::size_t bits_w) {
        const Shape in_shape = shape_of(cur_);
        if (in_shape.rank() != 2 || in_shape.dim(1) != lin.in_features()) {
            throw CompileError("compile: linear expects {N, " +
                               std::to_string(lin.in_features()) + "}, got " + in_shape.str());
        }
        Step s;
        s.kind = StepKind::kLinear;
        s.linear = &lin;
        s.out_channels = lin.out_features();
        s.weight = bits_w < quant::kFloatBits ? own_quantized(lin.weight().value, bits_w)
                                              : lin.weight().value.data();
        const Tensor& b = lin.bias_param().value;
        s.bias = b.size() == lin.out_features() ? b.data() : nullptr;
        s.in = cur_;
        s.label = "fc";
        s.out = new_value(Shape{in_shape.dim(0), lin.out_features()}, "fc");
        p_.stats.module_walk_floats += shape_of(s.out).numel();
        const int out = s.out;
        push(std::move(s));
        cur_ = out;
    }

    void emit_residual_add(int dst, int src) {
        Step s;
        s.kind = StepKind::kResidualAdd;
        s.in = dst;
        s.in2 = src;
        s.out = dst;  // the residual blocks' in-place `m += shortcut`
        s.label = "residual_add";
        clear_grid(dst);  // a sum of grid points is generally off-grid
        push(std::move(s));
        cur_ = dst;
    }

    void lower_basic(models::BasicBlock& blk) {
        const int x = cur_;
        const bool identity = blk.projection() == nullptr;
        if (identity) pinned_.insert(x);  // the shortcut add needs the pre-activation input
        lower(blk.act_in());
        const int a = cur_;
        lower_conv_unit(blk.unit1());
        lower(blk.act1());
        lower_conv_unit(blk.unit2());
        const int m = cur_;
        if (identity) {
            pinned_.erase(x);
            emit_residual_add(m, x);
        } else {
            cur_ = a;
            lower_conv_unit(*blk.projection());
            emit_residual_add(m, cur_);
        }
    }

    void lower_bottleneck(models::BottleneckBlock& blk) {
        const int x = cur_;
        const bool identity = blk.projection() == nullptr;
        if (identity) pinned_.insert(x);
        lower(blk.act_in());
        const int a = cur_;
        lower_conv_unit(blk.unit1());
        lower(blk.act1());
        lower_conv_unit(blk.unit2());
        lower(blk.act2());
        lower_conv_unit(blk.unit3());
        const int m = cur_;
        if (identity) {
            pinned_.erase(x);
            emit_residual_add(m, x);
        } else {
            cur_ = a;
            lower_conv_unit(*blk.projection());
            emit_residual_add(m, cur_);
        }
    }

    void lower_resnet(models::ResNet& net) {
        if (net.quant_input() != nullptr) lower_quant_input(*net.quant_input());
        lower_conv_unit(net.stem());
        if (net.stem_pool() != nullptr) lower_maxpool(*net.stem_pool());
        for (auto& blk : net.blocks()) {
            if (auto* bb = dynamic_cast<models::BottleneckBlock*>(blk.get())) {
                lower_bottleneck(*bb);
            } else if (auto* basic = dynamic_cast<models::BasicBlock*>(blk.get())) {
                lower_basic(*basic);
            } else {
                throw CompileError("compile: unknown residual block type");
            }
        }
        lower(net.final_activation());
        lower_gap(net.gap());
        if (net.fc_activation() != nullptr) lower(*net.fc_activation());
        lower_linear(net.fc().linear(), net.fc().bits_w());
        EwOp inject;
        inject.kind = EwOp::Kind::kInject;
        inject.injector = &net.fc_injector();
        emit_ew(inject, "fc_inject");
    }

    // ----- liveness-based arena layout -----

    /// Linear scan with a first-fit free list. Outputs defined at step i
    /// are placed before inputs dying at step i are released, so a step's
    /// input and output never alias (conv kernels require disjointness).
    void assign_offsets() {
        struct Block {
            std::size_t start, size;
        };
        std::vector<Block> free_list;  // sorted by start
        std::size_t arena = 0;

        auto alloc = [&](std::size_t n) -> std::size_t {
            for (auto it = free_list.begin(); it != free_list.end(); ++it) {
                if (it->size >= n) {
                    const std::size_t off = it->start;
                    it->start += n;
                    it->size -= n;
                    if (it->size == 0) free_list.erase(it);
                    return off;
                }
            }
            // Extend the arena; grow from a free block touching the end
            // when one exists, so the tail fragment is reused.
            if (!free_list.empty() && free_list.back().start + free_list.back().size == arena) {
                const std::size_t off = free_list.back().start;
                free_list.pop_back();
                arena = off + n;
                return off;
            }
            const std::size_t off = arena;
            arena += n;
            return off;
        };
        auto release = [&](std::size_t start, std::size_t n) {
            Block blk{start, n};
            auto it = std::lower_bound(
                free_list.begin(), free_list.end(), blk,
                [](const Block& a, const Block& b) { return a.start < b.start; });
            it = free_list.insert(it, blk);
            if (it + 1 != free_list.end() && it->start + it->size == (it + 1)->start) {
                it->size += (it + 1)->size;
                free_list.erase(it + 1);
            }
            if (it != free_list.begin() && (it - 1)->start + (it - 1)->size == it->start) {
                (it - 1)->size += it->size;
                free_list.erase(it);
            }
        };

        const int n_steps = static_cast<int>(p_.steps.size());
        for (int i = 0; i < n_steps; ++i) {
            for (std::size_t v = 0; v < p_.values.size(); ++v) {
                Value& val = p_.values[v];
                if (!val.external && val.def_step == i) {
                    val.offset = alloc(align16(val.shape.numel()));
                }
            }
            for (std::size_t v = 0; v < p_.values.size(); ++v) {
                const Value& val = p_.values[v];
                if (!val.external && val.last_use == i &&
                    static_cast<int>(v) != p_.output_value) {
                    release(val.offset, align16(val.shape.numel()));
                }
            }
        }
        p_.arena_floats = arena;
    }

    Program p_;
    int cur_ = 0;
    std::set<int> pinned_;  ///< values fusion/in-place must not overwrite
    std::map<int, quant::QuantGrid> grids_;  ///< value id -> current grid
};

void dump_tail(std::ostream& os, const std::vector<EwOp>& tail) {
    os << " tail=[";
    for (std::size_t i = 0; i < tail.size(); ++i) {
        if (i != 0) os << ' ';
        os << ew_name(tail[i].kind);
    }
    os << ']';
}

}  // namespace

const char* numeric_mode_name(NumericMode mode) {
    switch (mode) {
        case NumericMode::kInt8: return "int8";
        case NumericMode::kFp32: break;
    }
    return "fp32";
}

void ExecutionPlan::dump(std::ostream& os) const {
    os << "plan \"" << p_.root_name << "\" input=" << p_.input_shape.str() << " options{fuse="
       << (p_.options.fuse ? "on" : "off")
       << " fold_bn=" << (p_.options.fold_bn ? "on" : "off")
       << " gemm_int=" << gemm_int_mode_name(p_.options.gemm_int) << "}\n";
    os << "values (" << p_.values.size() << ", arena " << p_.arena_floats << " floats):\n";
    for (std::size_t i = 0; i < p_.values.size(); ++i) {
        const Value& v = p_.values[i];
        os << "  v" << i << ": " << v.shape.str();
        if (v.external) {
            os << " external";
        } else {
            os << " @" << v.offset;
        }
        os << " \"" << v.label << "\"";
        if (static_cast<int>(i) == p_.output_value) os << " (output)";
        os << '\n';
    }
    os << "steps (" << p_.steps.size() << "):\n";
    for (std::size_t i = 0; i < p_.steps.size(); ++i) {
        const Step& s = p_.steps[i];
        os << "  s" << i << ": " << step_name(s.kind);
        if (s.kind == StepKind::kElementwise) os << '/' << ew_name(s.ew.kind);
        os << " v" << s.in;
        if (s.in2 >= 0) os << " + v" << s.in2;
        os << " -> v" << s.out;
        switch (s.kind) {
            case StepKind::kQuantInput:
                os << "  bits=" << s.bits;
                break;
            case StepKind::kConv: {
                const ConvGeometry& g = s.lowering.geometry();
                os << "  cout=" << s.out_channels << " k=" << g.kernel_h << "x" << g.kernel_w
                   << " s=" << g.stride_h << " p=" << g.pad_h
                   << " numeric=" << numeric_mode_name(s.numeric);
                break;
            }
            case StepKind::kLinear:
                os << "  out_features=" << s.out_channels
                   << (s.bias != nullptr ? " bias" : "")
                   << " numeric=" << numeric_mode_name(s.numeric);
                break;
            default:
                break;
        }
        if (!s.tail.empty()) dump_tail(os, s.tail);
        os << '\n';
    }
    os << "stats: steps=" << p_.stats.steps << " layers_fused=" << p_.stats.layers_fused
       << " intermediates_eliminated=" << p_.stats.intermediates_eliminated
       << " module_walk_floats=" << p_.stats.module_walk_floats
       << " plan_floats=" << p_.stats.plan_floats << '\n';
}

std::string ExecutionPlan::dump_string() const {
    std::ostringstream os;
    dump(os);
    return os.str();
}

ExecutionPlan compile(nn::Module& root, const Shape& input, const CompileOptions& options) {
    runtime::trace::Span span("plan.compile");
    if (root.training()) {
        throw CompileError("compile: root module is in training mode (call set_training(false))");
    }
    if (input.rank() == 0 || input.dim(0) == 0) {
        throw CompileError("compile: input shape needs a nonzero batch dimension");
    }
    Builder builder(root, input, options);
    ExecutionPlan plan(builder.build(root));

    metrics::add(metrics::Counter::kPlanCompiles);
    const Stats& st = plan.stats();
    metrics::add(metrics::Counter::kPlanLayersFused, st.layers_fused);
    metrics::add(metrics::Counter::kPlanIntermediatesEliminated, st.intermediates_eliminated);
    if (st.module_walk_floats > st.plan_floats) {
        metrics::add(metrics::Counter::kPlanArenaBytesSaved,
                     4 * (st.module_walk_floats - st.plan_floats));
    }

    if (const char* path = std::getenv("AMSNET_PLAN_DUMP");
        path != nullptr && path[0] != '\0') {
        try {
            const std::filesystem::path p(path);
            if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
            std::ofstream out(path);  // overwrite: latest compile wins
            out << plan.dump_string();
            if (!out) throw std::runtime_error("write failed");
        } catch (const std::exception& e) {
            std::fprintf(stderr, "amsnet: AMSNET_PLAN_DUMP export failed for %s: %s\n", path,
                         e.what());
        }
    }
    return plan;
}

}  // namespace ams::compile
