// Graph compiler: ahead-of-time lowering of an eval-mode module graph
// into a flat ExecutionPlan — a vector of fused steps with pre-resolved
// arena offsets — executed with zero virtual dispatch per layer. The plan
// is the only inference path: evaluate_*, serve::InferenceServer, sweep
// workers and the benches all run it.
//
// Passes (DESIGN.md §13):
//   1. *Structure lowering*: a typed walk over the known module set
//      (ResNet, residual blocks, ConvUnit, Sequential, and the leaf
//      layers) emits one Step per tensor-producing operation; unknown
//      module types raise CompileError, which propagates (no fallback).
//   2. *Epilogue fusion* (CompileOptions::fuse, default on): elementwise
//      layers — injection, batch norm, bias, ReLU / clipped ReLU,
//      activation quantization — are absorbed into the tail of the
//      preceding conv / VMAC / linear step, or run in place when their
//      input has no later use. Fusion is value-preserving: the fused
//      tail applies the same kernels in the same order over the same
//      extents as the allocating eval-mode forward, so logits stay
//      bit-identical to it.
//   3. *BN folding* (CompileOptions::fold_bn, default OFF): every
//      ConvUnit's batch norm is folded into the conv weights
//      (models::fold_bn_into_conv) with DoReFa re-quantization of the
//      folded weights when bits_w < 32. This changes deployment
//      semantics (the paper's "fold after retraining" step), so it is
//      opt-in and never part of the default bit-identity contract.
//   4. *Liveness-based arena layout*: a linear-scan, first-fit
//      assignment packs every intermediate into one activation block,
//      shrinking the high-water mark versus one buffer per layer.
//
// Weight preparation happens once at compile time: DoReFa weight grids
// are materialized via quant::dorefa_quantize_weights_into (bit-for-bit
// the per-forward quantization of QuantConv2d), removing the per-pass
// tanh-normalization from the hot path. A plan therefore snapshots the
// weights: recompile after they change.
//
// AMSNET_PLAN_DUMP=<path> exports the textual plan IR at every compile.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "ams/error_injector.hpp"
#include "ams/vmac_conv.hpp"
#include "models/conv_unit.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/pooling.hpp"
#include "quant/quantized_view.hpp"
#include "runtime/eval_context.hpp"
#include "tensor/gemm_int.hpp"
#include "tensor/im2col.hpp"

namespace ams::compile {

/// Raised when the graph contains a module the compiler cannot lower (or
/// the root is in training mode). Every eval-graph module of the library
/// is lowerable, so this is a bug or a caller error, never a fallback.
class CompileError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Compilation knobs.
struct CompileOptions {
    /// Epilogue fusion + in-place elementwise steps. Value-preserving;
    /// on by default.
    bool fuse = true;
    /// Fold every ConvUnit's batch norm into its conv weights
    /// (re-quantized for bits_w < 32) with a digital bias tail. A
    /// deployment-semantics change (EXPERIMENTS.md); off by default.
    bool fold_bn = false;
    /// Integer numeric domain for eligible conv GEMM steps (DESIGN.md
    /// §14): when a conv's weights and input both live on DoReFa grids
    /// that fit 8-bit codes, the step runs as a packed int8 GEMM with
    /// requantization fused into its epilogue.
    /// A *toleranced* numeric realization (per-product rounding differs
    /// from fp32), so it is off by default and excluded from the
    /// bit-identity contract. Callers honoring AMSNET_GEMM_INT pass
    /// env_gemm_int_mode() here.
    GemmIntMode gemm_int = GemmIntMode::kOff;
};

/// Numeric realization of a GEMM step (kConv / kLinear). kFp32 is the
/// bit-identity path; kInt8 multiplies quantization codes exactly in
/// int32 and dequantizes once per output.
enum class NumericMode {
    kFp32,
    kInt8,  ///< int8 weight codes x uint8 activation codes
};

[[nodiscard]] const char* numeric_mode_name(NumericMode mode);

/// One SSA-ish intermediate of the plan: a tensor buffer at a fixed
/// offset in the plan's single activation block. Shapes are recorded at
/// the compile-time (maximum) batch; offsets stay valid for any smaller
/// run-time batch because every value is batch-major.
struct Value {
    Shape shape;                ///< at the compiled (max) batch
    std::size_t offset = 0;     ///< floats into the plan block
    bool external = false;      ///< value 0: the caller's input tensor
    int def_step = -1;          ///< step that first writes it (-1: external)
    int last_use = -1;          ///< last step that reads or writes it
    std::string label;
};

/// One fused elementwise operation, either in a step's epilogue tail or
/// as a standalone kElementwise step.
struct EwOp {
    enum class Kind {
        kInject,       ///< ErrorInjector::inject_inplace (skipped when disabled)
        kRecord,       ///< ConvUnit activation-stats accumulate (when recording)
        kBatchNorm,    ///< BatchNorm2d::normalize_eval (running statistics)
        kBias,         ///< per-channel digital bias add
        kRelu,         ///< simd::relu
        kClippedRelu,  ///< simd::clipped_relu
        kQuantAct,     ///< DoReFa activation quantization (clamp for >= 32 bits)
    };
    Kind kind = Kind::kRelu;
    vmac::ErrorInjector* injector = nullptr;  ///< kInject
    models::ConvUnit* unit = nullptr;         ///< kRecord
    const nn::BatchNorm2d* bn = nullptr;      ///< kBatchNorm
    const float* bias = nullptr;              ///< kBias ({out_channels} floats)
    float ceiling = 1.0f;                     ///< kClippedRelu
    std::size_t bits = 32;                    ///< kQuantAct
    std::size_t levels = 1;                   ///< kQuantAct magnitude levels
};

/// The step taxonomy: every compute shape of the module set.
enum class StepKind {
    kQuantInput,     ///< scale/clamp + signed quantization of the input
    kConv,           ///< im2col + packed GEMM (nn::conv_eval_run)
    kVmacConv,       ///< explicit-VMAC conv (VmacConv2d::forward_planned)
    kLinear,         ///< gemm_bt + bias (the FC head)
    kElementwise,    ///< standalone EwOp (in-place when legal)
    kMaxPool,        ///< MaxPool2d::pool_eval
    kGlobalAvgPool,  ///< GlobalAvgPool::reduce
    kResidualAdd,    ///< dst += src (digital shortcut join)
};

/// One flat execution step. Raw pointers refer either to the compiled
/// module graph (which must outlive the plan) or to the plan's owned
/// weight storage.
struct Step {
    StepKind kind = StepKind::kElementwise;
    int in = -1;    ///< input value id
    int in2 = -1;   ///< kResidualAdd: source value id
    int out = -1;   ///< output value id (== in for in-place steps)

    // kConv
    const float* weight = nullptr;       ///< pre-quantized / folded / latent
    std::size_t out_channels = 0;
    ConvLowering lowering;
    const void* scratch_owner = nullptr; ///< the source nn::Conv2d (shared scratch)

    // kVmacConv / kLinear / kMaxPool
    vmac::VmacConv2d* vmac = nullptr;
    nn::Linear* linear = nullptr;        ///< weight/bias read via `weight`/`bias`
    const float* bias = nullptr;         ///< kLinear digital bias (may be null)
    nn::MaxPool2d* maxpool = nullptr;

    // kQuantInput
    float inv_scale = 1.0f;
    std::size_t bits = 32;
    std::size_t levels = 1;

    // kConv integer numeric domain (kFp32 for every other step kind).
    // Weight code pointers alias the plan's owned_codes storage; the
    // activation grid describes the step's *input* value, which the
    // executor re-encodes to codes at run time.
    NumericMode numeric = NumericMode::kFp32;
    const std::int8_t* weight_i8 = nullptr;  ///< kInt8 weight codes
    std::size_t act_levels = 0;              ///< input grid levels (unsigned)
    float dequant = 1.0f;                    ///< 1 / (w_levels * act_levels)

    EwOp ew;                  ///< kElementwise payload
    std::vector<EwOp> tail;   ///< fused epilogue (kConv / kVmacConv / kLinear)
    std::string label;
};

/// Compile-time metrics (also mirrored into runtime::metrics plan_*
/// counters).
struct Stats {
    std::size_t steps = 0;
    std::size_t layers_fused = 0;             ///< elementwise layers absorbed into tails
    std::size_t intermediates_eliminated = 0; ///< per-layer tensors never materialized
    std::size_t module_walk_floats = 0;       ///< activation floats of one buffer per layer
    std::size_t plan_floats = 0;              ///< the plan's single-block size
};

/// The compiled program, as built by compile(). Public so the builder,
/// the executor, and the dump all speak one type; not intended for
/// hand-construction.
struct Program {
    Shape input_shape;                      ///< at the compiled (max) batch
    std::vector<Value> values;
    std::vector<Step> steps;
    std::vector<std::vector<float>> owned;  ///< pre-quantized / folded weights & biases
    std::vector<quant::QuantizedTensor> owned_codes;  ///< integer-mode weight codes
    std::size_t arena_floats = 0;           ///< one activation block, 16-float aligned slots
    int output_value = -1;
    Stats stats;
    std::string root_name;
    CompileOptions options;
};

/// A flat, dispatch-free forward program over one module graph.
///
/// run() allocates exactly one activation block from the context (inside
/// the caller's checkpoint/rewind) and executes the steps in order; the
/// returned Tensor borrows the output slot of that block. Accepts any
/// batch <= the compiled batch (offsets are fixed at the compiled batch;
/// per-run extents scale with the actual one).
///
/// Determinism contract: with default options the plan produces logits
/// bit-identical to the eval-mode allocating root.forward(input) for
/// every backend, at any thread count, on both SIMD arms — enforced by
/// tests/plan_identity_test. The plan holds raw pointers into the
/// compiled modules (noise streams, BN statistics), so the graph must
/// outlive the plan and weights must not be reallocated.
class ExecutionPlan {
public:
    explicit ExecutionPlan(Program program) : p_(std::move(program)) {}

    ExecutionPlan(const ExecutionPlan&) = delete;
    ExecutionPlan& operator=(const ExecutionPlan&) = delete;
    ExecutionPlan(ExecutionPlan&&) = default;
    ExecutionPlan& operator=(ExecutionPlan&&) = default;

    /// One forward pass. Throws std::invalid_argument if `input` does not
    /// match the compiled shape (batch may be smaller, never larger).
    [[nodiscard]] Tensor run(const Tensor& input, runtime::EvalContext& ctx);

    [[nodiscard]] const Stats& stats() const { return p_.stats; }
    [[nodiscard]] const Shape& input_shape() const { return p_.input_shape; }
    [[nodiscard]] std::size_t num_steps() const { return p_.steps.size(); }
    [[nodiscard]] std::size_t arena_floats() const { return p_.arena_floats; }
    [[nodiscard]] const Program& program() const { return p_; }

    /// Textual plan IR (the AMSNET_PLAN_DUMP format): values, steps with
    /// fused tails, arena layout, and the stats footer. Stable across
    /// runs — no pointers, only structure.
    void dump(std::ostream& os) const;
    [[nodiscard]] std::string dump_string() const;

private:
    Program p_;
};

/// Compiles `root` (which must be in eval mode) for inputs of shape
/// `input` (batch-major; the batch dimension is the maximum run() will
/// accept). Throws CompileError on training mode or an unsupported
/// module. Honors AMSNET_PLAN_DUMP.
[[nodiscard]] ExecutionPlan compile(nn::Module& root, const Shape& input,
                                    const CompileOptions& options = {});

}  // namespace ams::compile
