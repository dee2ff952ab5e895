// Sequential container: runs child modules in order.
//
// Also the unit of split computing: the prefix shape and FLOP queries let
// graph::search_split_point (graph/split_search.hpp) cost a cut after any
// child.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.hpp"

namespace mtlsplit::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for fluent building.
  Sequential& add(ModulePtr m) {
    check_arg(m != nullptr, "Sequential::add: null module");
    layers_.push_back(std::move(m));
    return *this;
  }

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<M>(std::forward<Args>(args)...));
    return *this;
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  /// Runs only layers [0, k) — the edge-side part of a split at k.
  Tensor forward_prefix(const Tensor& x, size_t k);
  /// Runs only layers [k, size()) — the server-side part of a split at k.
  Tensor forward_suffix(const Tensor& x, size_t k);

  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> buffers() override;
  Shape output_shape(const Shape& in) const override;
  /// Output shape after only the first @p k layers.
  Shape output_shape_prefix(const Shape& in, size_t k) const;

  void set_training(bool training) override;
  std::string name() const override { return "Sequential"; }
  int64_t activation_elems(const Shape& in) const override;
  int64_t flops(const Shape& in) const override;
  /// FLOPs of only the first @p k layers (for split-point costing).
  int64_t flops_prefix(const Shape& in, size_t k) const;

  size_t size() const { return layers_.size(); }
  /// Human-readable, position-unique name for layer @p i, e.g. "Conv2d_3".
  /// This is what split-search candidates and graph dumps print — the bare
  /// type name repeats (a VGG stack is mostly "Conv2d"), the label doesn't.
  std::string layer_label(size_t i) const {
    return layer(i).name() + "_" + std::to_string(i);
  }
  Module& layer(size_t i) {
    check_bounds(i < layers_.size(), "Sequential::layer: index out of range");
    return *layers_[i];
  }
  const Module& layer(size_t i) const {
    check_bounds(i < layers_.size(), "Sequential::layer: index out of range");
    return *layers_[i];
  }

 private:
  std::vector<ModulePtr> layers_;
};

}  // namespace mtlsplit::nn
