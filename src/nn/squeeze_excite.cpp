#include "nn/squeeze_excite.hpp"

#include <algorithm>

#include "runtime/thread_pool.hpp"

namespace mtlsplit::nn {

void channel_scale_forward(const float* x, int64_t planes, int64_t plane,
                           const float* scale, float* y) {
  runtime::parallel_for(0, planes, /*grain=*/8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float s = scale[i];
      const float* p = x + i * plane;
      float* o = y + i * plane;
      for (int64_t j = 0; j < plane; ++j) o[j] = p[j] * s;
    }
  });
}

SqueezeExcite::SqueezeExcite(int64_t channels, int64_t reduction, Rng& rng)
    : channels_(channels),
      fc1_(channels, std::max<int64_t>(1, channels / reduction), rng),
      fc2_(std::max<int64_t>(1, channels / reduction), channels, rng) {
  check_arg(channels > 0 && reduction > 0, "SqueezeExcite: bad configuration");
}

Tensor SqueezeExcite::forward(const Tensor& x) {
  check_arg(x.dim() == 4 && x.size(1) == channels_,
            "SqueezeExcite: expected [N, ", channels_, ", H, W], got ",
            x.shape());
  cached_input_ = x;
  Tensor s = gate_.forward(fc2_.forward(relu_.forward(
      fc1_.forward(pool_.forward(x)))));  // [N, C]
  cached_scale_ = s;

  Tensor out(x.shape());
  channel_scale_forward(x.data(), x.size(0) * channels_, x.size(2) * x.size(3),
                        s.data(), out.data());
  return out;
}

Tensor SqueezeExcite::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  check_arg(grad_out.shape() == x.shape(),
            "SqueezeExcite::backward: gradient shape mismatch");
  const int64_t n = x.size(0), plane = x.size(2) * x.size(3);

  // Direct path: dx += g * s.  Gate path: ds[n,c] = sum_hw g * x.
  Tensor grad_in(x.shape());
  Tensor grad_scale({n, channels_});
  const float* pg = grad_out.data();
  const float* px = x.data();
  const float* ps = cached_scale_.data();
  float* pgi = grad_in.data();
  float* pgs = grad_scale.data();
  for (int64_t i = 0; i < n * channels_; ++i) {
    const float sv = ps[i];
    const float* g = pg + i * plane;
    const float* p = px + i * plane;
    float* gi = pgi + i * plane;
    double acc = 0.0;
    for (int64_t j = 0; j < plane; ++j) {
      gi[j] = g[j] * sv;
      acc += static_cast<double>(g[j]) * p[j];
    }
    pgs[i] = static_cast<float>(acc);
  }

  // Backprop the gate MLP, then add its contribution to dx.
  Tensor gp = pool_.backward(
      fc1_.backward(relu_.backward(fc2_.backward(gate_.backward(grad_scale)))));
  float* pgi2 = grad_in.data();
  const float* pgp = gp.data();
  for (int64_t i = 0; i < grad_in.numel(); ++i) pgi2[i] += pgp[i];
  return grad_in;
}

std::vector<Parameter*> SqueezeExcite::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : fc1_.parameters()) out.push_back(p);
  for (Parameter* p : fc2_.parameters()) out.push_back(p);
  return out;
}

}  // namespace mtlsplit::nn
