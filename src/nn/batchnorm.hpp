// BatchNorm2d over NCHW batches (per-channel statistics).
//
// Training mode normalises with batch statistics and updates exponential
// running averages; eval mode normalises with the running averages. The
// backward pass implements the full batch-norm adjoint (gradients flow
// through the batch mean and variance).
#pragma once

#include "nn/activations.hpp"
#include "nn/module.hpp"

namespace mtlsplit::nn {

/// Eval-mode BatchNorm over @p n samples of @p channels planes of @p plane
/// elements: y = act(gamma[c] * (x - mean[c]) * (1 / sqrt(var[c] + eps)) +
/// beta[c]). The eval forward of BatchNorm2d and the compiled executor's
/// BatchNorm nodes both run this.
void batchnorm_eval_forward(const float* x, int64_t n, int64_t channels,
                            int64_t plane, const float* gamma,
                            const float* beta, const float* mean,
                            const float* var, float eps, ActFn act, float* y);

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  Shape output_shape(const Shape& in) const override { return in; }
  std::string name() const override { return "BatchNorm2d"; }
  int64_t flops(const Shape& in) const override {
    return 2 * mtlsplit::numel(in);  // scale + shift per element
  }

  int64_t channels() const { return channels_; }
  float eps() const { return eps_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int64_t channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Backward caches (training mode).
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // [C]
  int64_t cached_count_ = 0;
};

}  // namespace mtlsplit::nn
