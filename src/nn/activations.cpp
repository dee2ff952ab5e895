#include "nn/activations.hpp"

#include "runtime/thread_pool.hpp"

namespace mtlsplit::nn {

namespace {
// Activation maps are memory-bound; large chunks keep pool overhead small.
constexpr int64_t kActGrain = 1 << 15;
}  // namespace

const char* act_fn_name(ActFn fn) {
  switch (fn) {
    case ActFn::kNone: return "none";
    case ActFn::kReLU: return "ReLU";
    case ActFn::kSigmoid: return "Sigmoid";
    case ActFn::kHardSigmoid: return "HardSigmoid";
    case ActFn::kHardSwish: return "HardSwish";
    case ActFn::kSiLU: return "SiLU";
  }
  return "?";
}

void activation_forward(ActFn fn, const float* x, int64_t n, float* y) {
  runtime::parallel_for(0, n, kActGrain, [&](int64_t lo, int64_t hi) {
    with_act(fn, [&](auto f) {
      for (int64_t i = lo; i < hi; ++i) y[i] = act(f, x[i]);
    });
  });
}

Tensor Activation::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor out(x.shape());
  activation_forward(fn_, x.data(), x.numel(), out.data());
  return out;
}

Tensor Activation::backward(const Tensor& grad_out) {
  check_arg(grad_out.shape() == cached_input_.shape(),
            name(), "::backward: gradient shape mismatch");
  Tensor out(grad_out.shape());
  const float* pg = grad_out.data();
  const float* px = cached_input_.data();
  float* po = out.data();
  runtime::parallel_for(0, grad_out.numel(), kActGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i)
                            po[i] = pg[i] * df(px[i]);
                        });
  return out;
}

float Sigmoid::df(float x) const {
  const float s = act(ActFn::kSigmoid, x);
  return s * (1.0f - s);
}

float HardSigmoid::df(float x) const {
  return (x > -3.0f && x < 3.0f) ? 1.0f / 6.0f : 0.0f;
}

float HardSwish::df(float x) const {
  if (x <= -3.0f) return 0.0f;
  if (x >= 3.0f) return 1.0f;
  return (2.0f * x + 3.0f) / 6.0f;
}

float SiLU::df(float x) const {
  const float s = act(ActFn::kSigmoid, x);
  return s * (1.0f + x * (1.0f - s));
}

}  // namespace mtlsplit::nn
