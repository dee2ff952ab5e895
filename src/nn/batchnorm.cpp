#include "nn/batchnorm.hpp"

#include <cmath>

#include "runtime/thread_pool.hpp"

namespace mtlsplit::nn {

void batchnorm_eval_forward(const float* x, int64_t n, int64_t channels,
                            int64_t plane, const float* gamma,
                            const float* beta, const float* mean,
                            const float* var, float eps, ActFn act, float* y) {
  runtime::parallel_for(0, channels, 1, [&](int64_t clo, int64_t chi) {
    for (int64_t c = clo; c < chi; ++c) {
      const float inv_std = 1.0f / std::sqrt(var[c] + eps);
      const float m = mean[c], g = gamma[c], b = beta[c];
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x + (i * channels + c) * plane;
        float* o = y + (i * channels + c) * plane;
        for (int64_t j = 0; j < plane; ++j) o[j] = g * (p[j] - m) * inv_std + b;
        act_sweep(act, o, plane, o);
      }
    }
  });
}

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("gamma", Tensor({channels}, 1.0f)),
      beta_("beta", Tensor({channels}, 0.0f)),
      running_mean_({channels}, 0.0f),
      running_var_({channels}, 1.0f) {
  check_arg(channels > 0, "BatchNorm2d: channels must be positive");
  check_arg(momentum > 0.0f && momentum <= 1.0f, "BatchNorm2d: bad momentum");
  check_arg(eps > 0.0f, "BatchNorm2d: eps must be positive");
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  check_arg(x.dim() == 4 && x.size(1) == channels_,
            "BatchNorm2d: expected [N, ", channels_, ", H, W], got ",
            x.shape());
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t plane = h * w;
  const int64_t count = n * plane;
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();

  if (training_) {
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_ = Tensor({channels_});
    cached_count_ = count;
    float* pxh = cached_xhat_.data();
    // Channels are fully independent (statistics, normalization, running
    // buffers), so the channel loop parallelizes without any reduction.
    runtime::parallel_for(0, channels_, 1, [&](int64_t clo, int64_t chi) {
    for (int64_t c = clo; c < chi; ++c) {
      double sum = 0.0, sq = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* p = px + (i * channels_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          sum += p[j];
          sq += static_cast<double>(p[j]) * p[j];
        }
      }
      const float mean = static_cast<float>(sum / static_cast<double>(count));
      const float var = static_cast<float>(
          sq / static_cast<double>(count) - static_cast<double>(mean) * mean);
      const float inv_std = 1.0f / std::sqrt(var + eps_);
      cached_inv_std_[c] = inv_std;
      const float g = gamma_.value[c], b = beta_.value[c];
      for (int64_t i = 0; i < n; ++i) {
        const float* p = px + (i * channels_ + c) * plane;
        float* pxh_c = pxh + (i * channels_ + c) * plane;
        float* po_c = po + (i * channels_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          const float xh = (p[j] - mean) * inv_std;
          pxh_c[j] = xh;
          po_c[j] = g * xh + b;
        }
      }
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean;
      // PyTorch convention: running variance uses the unbiased estimator.
      const float unbiased =
          count > 1 ? var * static_cast<float>(count) /
                          static_cast<float>(count - 1)
                    : var;
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * unbiased;
    }
    });
  } else {
    batchnorm_eval_forward(px, n, channels_, plane, gamma_.value.data(),
                           beta_.value.data(), running_mean_.data(),
                           running_var_.data(), eps_, ActFn::kNone, po);
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  check_arg(training_, "BatchNorm2d::backward requires training mode");
  check_arg(grad_out.shape() == cached_xhat_.shape(),
            "BatchNorm2d::backward: gradient shape mismatch");
  const int64_t n = grad_out.size(0), h = grad_out.size(2),
                w = grad_out.size(3);
  const int64_t plane = h * w;
  const float count = static_cast<float>(cached_count_);
  Tensor grad_in(grad_out.shape());
  const float* pg = grad_out.data();
  const float* pxh = cached_xhat_.data();
  float* pgi = grad_in.data();

  runtime::parallel_for(0, channels_, 1, [&](int64_t clo, int64_t chi) {
  for (int64_t c = clo; c < chi; ++c) {
    // Accumulate sum(g) and sum(g * xhat) for the mean/var back-terms.
    double sum_g = 0.0, sum_gx = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const float* g = pg + (i * channels_ + c) * plane;
      const float* xh = pxh + (i * channels_ + c) * plane;
      for (int64_t j = 0; j < plane; ++j) {
        sum_g += g[j];
        sum_gx += static_cast<double>(g[j]) * xh[j];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gx);
    beta_.grad[c] += static_cast<float>(sum_g);

    const float gamma = gamma_.value[c];
    const float inv_std = cached_inv_std_[c];
    const float mean_g = static_cast<float>(sum_g) / count;
    const float mean_gx = static_cast<float>(sum_gx) / count;
    for (int64_t i = 0; i < n; ++i) {
      const float* g = pg + (i * channels_ + c) * plane;
      const float* xh = pxh + (i * channels_ + c) * plane;
      float* gi = pgi + (i * channels_ + c) * plane;
      for (int64_t j = 0; j < plane; ++j)
        gi[j] = gamma * inv_std * (g[j] - mean_g - xh[j] * mean_gx);
    }
  }
  });
  return grad_in;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

}  // namespace mtlsplit::nn
