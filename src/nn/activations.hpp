// Elementwise activations: the one forward kernel every path runs, and the
// layers that wrap it for training.
//
// ReLU           — VGG-style nets and the MLP task heads (paper §4).
// HardSigmoid    — MobileNetV3 squeeze-excite gate.
// HardSwish      — MobileNetV3 trunk activation.
// SiLU (swish)   — EfficientNet trunk activation.
// Sigmoid        — general-purpose gate.
//
// nn::act is the only definition of each function. Activation::forward
// and the compiled executor's activation nodes both run
// activation_forward, and the conv, depthwise, BatchNorm and linear
// kernels take an ActFn epilogue that applies the same nn::act to each
// output as they write it — so a fused epilogue is bitwise equal to a
// separate activation sweep. Every activation preserves shape; backward()
// multiplies the incoming gradient by the derivative evaluated at the
// cached input.
#pragma once

#include <cmath>
#include <type_traits>

#include "nn/module.hpp"

namespace mtlsplit::nn {

enum class ActFn { kNone, kReLU, kSigmoid, kHardSigmoid, kHardSwish, kSiLU };

/// "ReLU", "Sigmoid", ... ("none" for kNone).
const char* act_fn_name(ActFn fn);

/// fn applied to x: the one definition of each activation function.
inline float act(ActFn fn, float x) {
  switch (fn) {
    case ActFn::kNone:
      return x;
    case ActFn::kReLU:
      return x > 0.0f ? x : 0.0f;
    case ActFn::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case ActFn::kHardSigmoid:
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return 1.0f;
      return x / 6.0f + 0.5f;
    case ActFn::kHardSwish:
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return x;
      return x * (x + 3.0f) / 6.0f;
    case ActFn::kSiLU:
      return x / (1.0f + std::exp(-x));
  }
  return x;
}

/// Calls body(f) with @p fn as a compile-time constant f (an
/// std::integral_constant that converts to ActFn). act(f, x) then folds its
/// switch away and the body's loop vectorizes; a runtime fn would keep the
/// switch live per element. Values are unchanged — only the dispatch moves
/// out of the loop.
template <class Body>
void with_act(ActFn fn, Body&& body) {
  switch (fn) {
    case ActFn::kNone:
      return body(std::integral_constant<ActFn, ActFn::kNone>{});
    case ActFn::kReLU:
      return body(std::integral_constant<ActFn, ActFn::kReLU>{});
    case ActFn::kSigmoid:
      return body(std::integral_constant<ActFn, ActFn::kSigmoid>{});
    case ActFn::kHardSigmoid:
      return body(std::integral_constant<ActFn, ActFn::kHardSigmoid>{});
    case ActFn::kHardSwish:
      return body(std::integral_constant<ActFn, ActFn::kHardSwish>{});
    case ActFn::kSiLU:
      return body(std::integral_constant<ActFn, ActFn::kSiLU>{});
  }
}

/// y[i] = act(fn, x[i]) for i < n, in parallel chunks; @p y may alias @p x.
void activation_forward(ActFn fn, const float* x, int64_t n, float* y);

/// Common base: caches the forward input, runs activation_forward, and
/// multiplies by df in backward.
class Activation : public Module {
 public:
  Tensor forward(const Tensor& x) final;
  Tensor backward(const Tensor& grad_out) final;
  Shape output_shape(const Shape& in) const final { return in; }
  std::string name() const final { return act_fn_name(fn_); }

  /// The function this layer applies.
  ActFn fn() const { return fn_; }

 protected:
  explicit Activation(ActFn fn) : fn_(fn) {}
  virtual float df(float x) const = 0;

 private:
  ActFn fn_;
  Tensor cached_input_;
};

class ReLU final : public Activation {
 public:
  ReLU() : Activation(ActFn::kReLU) {}

 protected:
  float df(float x) const override { return x > 0.0f ? 1.0f : 0.0f; }
};

class Sigmoid final : public Activation {
 public:
  Sigmoid() : Activation(ActFn::kSigmoid) {}

 protected:
  float df(float x) const override;
};

class HardSigmoid final : public Activation {
 public:
  HardSigmoid() : Activation(ActFn::kHardSigmoid) {}

 protected:
  float df(float x) const override;
};

class HardSwish final : public Activation {
 public:
  HardSwish() : Activation(ActFn::kHardSwish) {}

 protected:
  float df(float x) const override;
};

class SiLU final : public Activation {
 public:
  SiLU() : Activation(ActFn::kSiLU) {}

 protected:
  float df(float x) const override;
};

}  // namespace mtlsplit::nn
