// Elementwise activations: the one forward kernel every path runs, and the
// layers that wrap it for training.
//
// ReLU           — VGG-style nets and the MLP task heads (paper §4).
// HardSigmoid    — MobileNetV3 squeeze-excite gate.
// HardSwish      — MobileNetV3 trunk activation.
// SiLU (swish)   — EfficientNet trunk activation.
// Sigmoid        — general-purpose gate.
//
// nn::act is the only definition of each function; Sigmoid and SiLU take
// their exponential from exp_poly. act_sweep applies one function to a
// row four lanes at a time, each lane bitwise equal to nn::act.
// Activation::forward, the compiled executor's activation nodes and the
// epilogues of the conv, depthwise, BatchNorm and linear kernels all run
// the sweep over what they just wrote, so a fused epilogue is bitwise
// equal to a separate activation pass. Every activation preserves shape;
// backward() multiplies the incoming gradient by the derivative evaluated
// at the cached input.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "nn/module.hpp"

namespace mtlsplit::nn {

enum class ActFn { kNone, kReLU, kSigmoid, kHardSigmoid, kHardSwish, kSiLU };

/// "ReLU", "Sigmoid", ... ("none" for kNone).
const char* act_fn_name(ActFn fn);

/// Constants of exp_poly, shared with its four-lane form in act_sweep.
namespace exp_poly_const {
inline constexpr float kLo = -104.0f;  // exp(-104) < 2^-150 rounds to +0
inline constexpr float kHi = 89.0f;    // above ln(FLT_MAX) ~ 88.7228: +inf
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kShifter = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kLn2Hi = 0.693359375f;   // ln 2 = kLn2Hi + kLn2Lo
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kP0 = 1.9875691500e-4f;
inline constexpr float kP1 = 1.3981999507e-3f;
inline constexpr float kP2 = 8.3334519073e-3f;
inline constexpr float kP3 = 4.1665795894e-2f;
inline constexpr float kP4 = 1.6666665459e-1f;
inline constexpr float kP5 = 5.0000001201e-1f;
}  // namespace exp_poly_const

/// e^x within 1 ULP of libm's expf for x in [ln FLT_MIN, ln FLT_MAX]
/// (DESIGN.md §6), in the Cephes style: x = n ln 2 + r with n rounded by
/// the 1.5 * 2^23 shifter, a degree-5 polynomial for e^r, then 2^n placed
/// into the exponent bits in two halves, so results that overflow round to
/// +inf and results below FLT_MIN round once into the denormals. NaN in
/// gives NaN out; no float is ever converted to an integer.
inline float exp_poly(float x) {
  using namespace exp_poly_const;
  x = std::min(std::max(x, kLo), kHi);  // NaN passes through both
  const float t = x * kLog2e + kShifter;
  const float n = t - kShifter;
  const float r = (x - n * kLn2Hi) - n * kLn2Lo;
  float p = kP0 * r + kP1;
  p = p * r + kP2;
  p = p * r + kP3;
  p = p * r + kP4;
  p = p * r + kP5;
  p = (p * (r * r) + r) + 1.0f;
  // n sits in the low bits of t; split it so each half is a normal 2^k.
  const uint32_t k =
      std::bit_cast<uint32_t>(t) - std::bit_cast<uint32_t>(kShifter);
  const uint32_t k1 = static_cast<uint32_t>(static_cast<int32_t>(k) >> 1);
  const uint32_t k2 = k - k1;
  return p * std::bit_cast<float>((k1 + 127u) << 23) *
         std::bit_cast<float>((k2 + 127u) << 23);
}

/// fn applied to x: the one definition of each activation function.
inline float act(ActFn fn, float x) {
  switch (fn) {
    case ActFn::kNone:
      return x;
    case ActFn::kReLU:
      return x > 0.0f ? x : 0.0f;
    case ActFn::kSigmoid:
      return 1.0f / (1.0f + exp_poly(-x));
    case ActFn::kHardSigmoid:
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return 1.0f;
      return x / 6.0f + 0.5f;
    case ActFn::kHardSwish:
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return x;
      return x * (x + 3.0f) / 6.0f;
    case ActFn::kSiLU:
      return x / (1.0f + exp_poly(-x));
  }
  return x;
}

/// y[i] = act(fn, x[i]) for i < n, four lanes at a time where the target
/// has SSE2 and through act() for the tail; @p y may alias @p x. Each lane
/// is bitwise equal to act(). Serial: kernels call it per row or plane.
void act_sweep(ActFn fn, const float* x, int64_t n, float* y);

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
