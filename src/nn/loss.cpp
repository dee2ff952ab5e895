#include "nn/loss.hpp"

#include <cmath>

#include "tensor/tensor_ops.hpp"

namespace mtlsplit::nn {

LossResult cross_entropy(const Tensor& logits,
                         std::span<const int64_t> targets) {
  check_arg(logits.dim() == 2, "cross_entropy: logits must be [N, C]");
  const int64_t n = logits.size(0), c = logits.size(1);
  check_arg(static_cast<int64_t>(targets.size()) == n,
            "cross_entropy: ", targets.size(), " targets for batch ", n);
  for (int64_t t : targets)
    check_arg(t >= 0 && t < c,
              "cross_entropy: target ", t, " out of range [0, ", c, ")");

  const Tensor logp = ops::log_softmax_rows(logits);
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i)
    loss -= logp[i * c + targets[static_cast<size_t>(i)]];

  // grad = (softmax - onehot) / N
  LossResult r;
  r.loss = static_cast<float>(loss / static_cast<double>(n));
  r.grad = Tensor(logits.shape());
  const float* plp = logp.data();
  float* pg = r.grad.data();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = targets[static_cast<size_t>(i)];
    for (int64_t j = 0; j < c; ++j) {
      const float p = std::exp(plp[i * c + j]);
      pg[i * c + j] = (p - (j == t ? 1.0f : 0.0f)) * inv_n;
    }
  }
  return r;
}

LossResult mse(const Tensor& pred, const Tensor& target) {
  check_arg(same_shape(pred.shape(), target.shape()),
            "mse: shape mismatch ", pred.shape(), " vs ", target.shape());
  check_arg(pred.numel() > 0, "mse: empty tensors");
  LossResult r;
  r.grad = Tensor(pred.shape());
  const float* pp = pred.data();
  const float* pt = target.data();
  float* pg = r.grad.data();
  const int64_t n = pred.numel();
  double loss = 0.0;
  const float scale = 2.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    const float d = pp[i] - pt[i];
    loss += static_cast<double>(d) * d;
    pg[i] = scale * d;
  }
  r.loss = static_cast<float>(loss / static_cast<double>(n));
  return r;
}

}  // namespace mtlsplit::nn
