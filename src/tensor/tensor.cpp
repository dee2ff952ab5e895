#include "tensor/tensor.hpp"

#include <cmath>

namespace mtlsplit {

Tensor Tensor::reshape(Shape new_shape) const {
  int64_t known = 1;
  int infer = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      check_arg(infer == -1, "reshape: more than one -1 dimension");
      infer = static_cast<int>(i);
    } else {
      check_arg(new_shape[i] >= 0, "reshape: negative dimension");
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    check_arg(known > 0 && numel() % known == 0,
              "reshape: cannot infer dim, ", numel(), " not divisible by ",
              known);
    new_shape[static_cast<size_t>(infer)] = numel() / known;
    known *= new_shape[static_cast<size_t>(infer)];
  }
  check_arg(known == numel(),
            "reshape: ", shape_, " (", numel(), " elements) to ", new_shape,
            " (", known, " elements)");
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  return out;
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    const float a = data_[i], b = other.data_[i];
    if (std::isnan(a) != std::isnan(b)) return false;
    if (!std::isnan(a) && std::abs(a - b) > tol) return false;
  }
  return true;
}

}  // namespace mtlsplit
