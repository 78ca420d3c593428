// Module: the base abstraction for differentiable network layers.
//
// amsnet uses module-level backpropagation (as opposed to a taped autograd
// graph): every Module caches whatever it needs during forward() and
// produces the input gradient in backward(), accumulating parameter
// gradients as a side effect. This mirrors how Distiller-wrapped PyTorch
// layers behave from the error-injection point of view, and keeps the
// framework small and auditable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace ams::nn {

/// A trainable tensor with its gradient accumulator.
///
/// `frozen` implements the paper's selective-freezing study (Table 2):
/// a frozen parameter still participates in forward/backward (gradients
/// flow *through* its layer) but the optimizer does not update it.
struct Parameter {
    std::string name;
    Tensor value;
    Tensor grad;
    bool frozen = false;

    Parameter() = default;
    Parameter(std::string n, Tensor v)
        : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

    void zero_grad() { grad.zero(); }
};

/// Base class for all layers.
class Module {
public:
    Module() = default;
    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;
    virtual ~Module() = default;

    /// Computes the layer output, caching state needed by backward().
    virtual Tensor forward(const Tensor& input) = 0;

    /// Given dL/d(output), accumulates parameter gradients and returns
    /// dL/d(input). Must be called after forward() on the same input.
    virtual Tensor backward(const Tensor& grad_output) = 0;

    /// All trainable parameters of this module (recursively for containers).
    virtual std::vector<Parameter*> parameters() { return {}; }

    /// Switches between training and evaluation behaviour (e.g. batch norm
    /// batch statistics vs running statistics). Default: stateless.
    virtual void set_training(bool training) { training_ = training; }
    [[nodiscard]] bool training() const { return training_; }

    /// Short human-readable layer kind, e.g. "Conv2d".
    [[nodiscard]] virtual std::string name() const = 0;

    /// Serializes parameters and persistent buffers under `prefix`.
    virtual void collect_state(const std::string& prefix, TensorMap& out) const;

    /// Restores state written by collect_state. Throws std::runtime_error
    /// if a required entry is missing or has the wrong shape.
    virtual void load_state(const std::string& prefix, const TensorMap& in);

    /// Freezes / unfreezes every parameter of this module.
    void set_frozen(bool frozen);

protected:
    /// Non-virtual parameter access used by the default state (de)serializers.
    /// Containers override collect_state/load_state instead.
    virtual std::vector<const Parameter*> own_parameters() const { return {}; }
    virtual std::vector<Parameter*> own_parameters() { return {}; }

private:
    bool training_ = true;
};

/// Convenience: zero the gradients of a parameter set.
void zero_grads(const std::vector<Parameter*>& params);

/// Total number of scalar weights in a parameter set.
[[nodiscard]] std::size_t parameter_count(const std::vector<Parameter*>& params);

// ----- weight sharing for evaluation replicas (instance pools) -----
//
// A serving instance pool wants N copies of one model that differ only in
// their *mutable* per-forward state (noise stream epochs, backend
// residue, BN batch caches) while the large immutable weight tensors are
// held once. share_parameters_with rebinds every parameter of `dst` to a
// borrowed view over the matching parameter of `src`: after the call the
// replica owns no weight storage of its own (its previous deep copies
// are freed), so each added instance costs only its small buffers and
// arenas. The borrow follows Tensor::borrowed semantics — `src` must
// outlive `dst`, and `src`'s parameters must not reallocate (training or
// load_state on the primary while replicas exist is undefined).

/// Rebinds every parameter value of `dst` to borrow the storage of the
/// positionally matching parameter of `src`. Both modules must have the
/// same architecture: parameter lists are matched by position and
/// checked by name and shape (std::invalid_argument on any mismatch).
/// Returns the number of floats now shared instead of copied.
std::size_t share_parameters_with(Module& dst, Module& src);

/// Releases the gradient accumulators of every parameter (an eval-only
/// replica never runs backward; keeping the accumulators would double
/// its footprint). Returns the number of floats freed.
std::size_t release_gradients(Module& module);

/// Floats of parameter-value storage `module` actually owns — borrowed
/// (shared) parameters count zero. The per-instance weight cost of a
/// replica, proven ~0 by tests/replica_test.cpp.
[[nodiscard]] std::size_t owned_parameter_floats(Module& module);

}  // namespace ams::nn
