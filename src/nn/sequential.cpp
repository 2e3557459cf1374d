#include "src/nn/sequential.hpp"

#include "src/common/check.hpp"


namespace ftpim {

Sequential::Sequential(const Sequential& other) {
  children_.reserve(other.children_.size());
  for (const auto& child : other.children_) children_.push_back(child->clone());
}

std::unique_ptr<Module> Sequential::clone() const { return std::make_unique<Sequential>(*this); }

Sequential& Sequential::add(std::unique_ptr<Module> child) {
  FTPIM_CHECK(!(!child), "Sequential::add: null child");
  children_.push_back(std::move(child));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& child : children_) x = child->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::visit(ModuleWalk& walk) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    walk.child(std::to_string(i), *children_[i]);
  }
}

}  // namespace ftpim
