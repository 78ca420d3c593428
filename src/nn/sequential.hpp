// Sequential: ordered container of modules.
#pragma once

#include <memory>

#include "nn/module.hpp"

namespace ams::nn {

/// Runs child modules in order on forward, in reverse on backward.
class Sequential : public Module {
public:
    Sequential() = default;

    /// Appends a module; returns a reference to it for fluent building.
    Module& add(std::unique_ptr<Module> module);

    /// Typed emplace convenience: seq.emplace<ReLU>();
    template <typename M, typename... Args>
    M& emplace(Args&&... args) {
        auto mod = std::make_unique<M>(std::forward<Args>(args)...);
        M& ref = *mod;
        add(std::move(mod));
        return ref;
    }

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    void set_training(bool training) override;
    [[nodiscard]] std::string name() const override { return "Sequential"; }

    void collect_state(const std::string& prefix, TensorMap& out) const override;
    void load_state(const std::string& prefix, const TensorMap& in) override;

    [[nodiscard]] std::size_t size() const { return modules_.size(); }
    [[nodiscard]] Module& child(std::size_t i) { return *modules_.at(i); }
    [[nodiscard]] const Module& child(std::size_t i) const { return *modules_.at(i); }

private:
    std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace ams::nn
