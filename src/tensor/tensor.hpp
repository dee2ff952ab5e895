// Dense float32 N-dimensional tensor with value semantics.
//
// Design notes (see DESIGN.md §6):
//  * Row-major contiguous storage in a std::vector<float>; copying a Tensor
//    deep-copies, moving is O(1). There are no lazy views — reshape returns
//    a tensor sharing nothing, which keeps aliasing bugs out of the backprop
//    caches at the cost of a memcpy.
//  * dtype is float32 only; the split-computing wire format additionally
//    understands int8 via sc::Quantizer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.hpp"

namespace mtlsplit {

class Tensor {
 public:
  /// Empty 0-element tensor of shape {0}.
  Tensor() : shape_{0} {}

  /// Zero-filled tensor of @p shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(mtlsplit::numel(shape_)), 0.0f) {}

  /// @p shape filled with @p value.
  Tensor(Shape shape, float value)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(mtlsplit::numel(shape_)), value) {}

  /// Takes ownership of @p data, which must have numel(shape) elements.
  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    check_arg(static_cast<int64_t>(data_.size()) == mtlsplit::numel(shape_),
              "Tensor: data size ", data_.size(), " does not match shape ",
              shape_);
  }

  /// Convenience: 1-d tensor from an initializer list.
  static Tensor from_values(std::initializer_list<float> values) {
    return Tensor({static_cast<int64_t>(values.size())},
                  std::vector<float>(values));
  }

  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  /// Size of dimension @p i; negative indices count from the back.
  int64_t size(int64_t i) const {
    const int64_t d = dim();
    if (i < 0) i += d;
    check_bounds(i >= 0 && i < d, "Tensor::size: dim ", i,
                 " out of range for ", shape_);
    return shape_[static_cast<size_t>(i)];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Bounds-checked linear access.
  float& at(int64_t i) {
    check_bounds(i >= 0 && i < numel(), "Tensor::at: index ", i,
                 " out of range ", numel());
    return data_[static_cast<size_t>(i)];
  }
  float at(int64_t i) const {
    check_bounds(i >= 0 && i < numel(), "Tensor::at: index ", i,
                 " out of range ", numel());
    return data_[static_cast<size_t>(i)];
  }

  /// 2-d element access (row, col); tensor must be 2-d.
  float& at(int64_t r, int64_t c) {
    check_bounds(dim() == 2, "Tensor::at(r,c): tensor is not 2-d");
    check_bounds(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
                 "Tensor::at: (", r, ",", c, ") out of range ", shape_);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    return const_cast<Tensor*>(this)->at(r, c);
  }

  /// 4-d element access (n, c, h, w); tensor must be 4-d.
  float& at(int64_t n, int64_t c, int64_t h, int64_t w) {
    check_bounds(dim() == 4, "Tensor::at(n,c,h,w): tensor is not 4-d");
    const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
    check_bounds(n >= 0 && n < shape_[0] && c >= 0 && c < C && h >= 0 &&
                     h < H && w >= 0 && w < W,
                 "Tensor::at: (", n, ",", c, ",", h, ",", w,
                 ") out of range ", shape_);
    return data_[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
  }
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const {
    return const_cast<Tensor*>(this)->at(n, c, h, w);
  }

  /// Returns a copy with the given shape; element count must match.
  /// One dimension may be -1 and is inferred.
  Tensor reshape(Shape new_shape) const;

  /// Copy of this tensor (explicit, for readability at call sites).
  Tensor clone() const { return *this; }

  void fill(float value) { std::fill(data_.begin(), data_.end(), value); }
  void zero() { fill(0.0f); }

  /// True when shapes and all elements match exactly.
  bool equals(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

  /// True when shapes match and all elements are within @p tol.
  bool allclose(const Tensor& other, float tol = 1e-5f) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace mtlsplit
