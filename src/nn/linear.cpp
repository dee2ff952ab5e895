#include "nn/linear.hpp"

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit::nn {

void linear_forward(const float* x, int64_t n, int64_t in, int64_t out,
                    const float* w, const float* b, ActFn act, float* y) {
  ops::detail::gemm_nt(n, in, out, x, w, y);
  for (int64_t i = 0; i < n; ++i) {
    float* row = y + i * out;
    if (b != nullptr)
      for (int64_t j = 0; j < out; ++j) row[j] += b[j];
    act_sweep(act, row, out, row);
  }
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias) {
  check_arg(in_features > 0 && out_features > 0, "Linear: bad feature sizes");
  Tensor w({out_features, in_features});
  kaiming_uniform(w, in_features, rng);
  weight_ = Parameter("weight", std::move(w));
  if (with_bias_) bias_ = Parameter("bias", Tensor({out_features}));
}

Tensor Linear::forward(const Tensor& x) {
  check_arg(x.dim() == 2 && x.size(1) == in_features_,
            "Linear: expected [N, ", in_features_, "], got ", x.shape());
  cached_input_ = x;
  Tensor y({x.size(0), out_features_});
  linear_forward(x.data(), x.size(0), in_features_, out_features_,
                 weight_.value.data(), with_bias_ ? bias_.value.data() : nullptr,
                 ActFn::kNone, y.data());
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  check_arg(grad_out.dim() == 2 && grad_out.size(1) == out_features_ &&
                grad_out.size(0) == cached_input_.size(0),
            "Linear::backward: gradient shape mismatch");
  // dW = g^T x ; db = sum_rows(g) ; dx = g W
  ops::add_(weight_.grad, ops::matmul_tn(grad_out, cached_input_));
  if (with_bias_) ops::add_(bias_.grad, ops::sum_rows(grad_out));
  return ops::matmul(grad_out, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Shape Linear::output_shape(const Shape& in) const {
  check_arg(in.size() == 2 && in[1] == in_features_,
            "Linear::output_shape: bad input shape");
  return {in[0], out_features_};
}

}  // namespace mtlsplit::nn
