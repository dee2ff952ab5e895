// Module: the base class of every neural-network layer.
//
// The library uses layer-based backpropagation rather than a tape autograd
// (DESIGN.md §6): each module caches what it needs during forward() and
// implements the exact adjoint in backward(). backward(grad_out) returns
// grad wrt the module input and accumulates grads into its Parameters.
//
// Contract:
//  * backward() must be called after forward() with a gradient of the same
//    shape as the last forward output, while the cached activations are
//    still alive.
//  * Parameter gradients ACCUMULATE across calls; callers zero them via
//    zero_grad() (the optimizers do this after each step).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace mtlsplit::nn {

/// A learnable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Runs the layer on @p x and caches whatever backward() needs.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulates parameter grads and returns dL/d(input).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// All learnable parameters, recursively for containers.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Non-learnable persistent state (e.g. BatchNorm running statistics),
  /// recursively for containers. Saved and restored by nn/checkpoint
  /// alongside the parameters.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Output shape for a given input shape, without running forward().
  /// Used by the analytic model profiler (Table 4) and the split search.
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Short type tag for diagnostics and profiling rows, e.g. "Conv2d".
  virtual std::string name() const = 0;

  /// Number of activation elements this layer materialises in a forward
  /// pass for the given input shape. Leaf layers count their output;
  /// composite layers (Sequential, MBConv, SqueezeExcite) sum their
  /// internals. Drives the "forward/backward pass size" column of the
  /// Table 4 profiler.
  virtual int64_t activation_elems(const Shape& in) const {
    return mtlsplit::numel(output_shape(in));
  }

  /// Multiply-accumulate-dominated FLOP estimate of a forward pass on the
  /// given input shape (2 FLOPs per MAC). The default — one FLOP per output
  /// element — covers activations, pooling and reshapes; compute-heavy
  /// layers override. Drives the sc::Device latency model.
  virtual int64_t flops(const Shape& in) const {
    return mtlsplit::numel(output_shape(in));
  }

  /// Switches between training behaviour (dropout active, batch-norm batch
  /// statistics) and inference behaviour.
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.zero();
  }

  /// Total number of learnable scalars.
  int64_t num_params() {
    int64_t n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }

 protected:
  bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace mtlsplit::nn
