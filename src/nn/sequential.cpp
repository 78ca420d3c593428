#include "nn/sequential.hpp"

#include <stdexcept>

namespace ams::nn {

Module& Sequential::add(std::unique_ptr<Module> module) {
    if (!module) throw std::invalid_argument("Sequential::add: null module");
    modules_.push_back(std::move(module));
    return *modules_.back();
}

Tensor Sequential::forward(const Tensor& input) {
    Tensor x = input;
    for (auto& m : modules_) x = m->forward(x);
    return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
    Tensor g = grad_output;
    for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) g = (*it)->backward(g);
    return g;
}

std::vector<Parameter*> Sequential::parameters() {
    std::vector<Parameter*> out;
    for (auto& m : modules_) {
        auto p = m->parameters();
        out.insert(out.end(), p.begin(), p.end());
    }
    return out;
}

void Sequential::set_training(bool training) {
    Module::set_training(training);
    for (auto& m : modules_) m->set_training(training);
}

void Sequential::collect_state(const std::string& prefix, TensorMap& out) const {
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->collect_state(prefix + std::to_string(i) + ".", out);
    }
}

void Sequential::load_state(const std::string& prefix, const TensorMap& in) {
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->load_state(prefix + std::to_string(i) + ".", in);
    }
}

}  // namespace ams::nn
