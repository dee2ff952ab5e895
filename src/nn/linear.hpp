// Fully connected layer: y = x W^T + b over a [N, in] batch.
#pragma once

#include "nn/activations.hpp"
#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace mtlsplit::nn {

/// y[n, out] = act(x W^T + b) for an [n, in] batch @p x. @p w is [out, in];
/// @p b is [out] or null. Linear::forward and the compiled executor's
/// linear nodes both run this.
void linear_forward(const float* x, int64_t n, int64_t in, int64_t out,
                    const float* w, const float* b, ActFn act, float* y);

class Linear final : public Module {
 public:
  /// Weight is [out_features, in_features], He-uniform initialised.
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  Shape output_shape(const Shape& in) const override;
  std::string name() const override { return "Linear"; }
  int64_t flops(const Shape& in) const override {
    return 2 * in.at(0) * in_features_ * out_features_;
  }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  bool has_bias() const { return with_bias_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  int64_t in_features_, out_features_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace mtlsplit::nn
