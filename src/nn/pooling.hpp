// Spatial pooling layers over NCHW batches, and the forward kernels that
// both the layers and the compiled executor run. Each kernel works on
// @p planes independent h x w planes ((sample, channel) pairs) with a
// square window and no padding.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace mtlsplit::nn {

/// Max over each window. When @p argmax is non-null it receives, per output
/// element, the flat index into @p x of the element that won (the first
/// maximum in (kh, kw) order) — what MaxPool2d::backward scatters to.
void max_pool2d_forward(const float* x, int64_t planes, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, float* y,
                        int64_t* argmax);

/// Mean over each window: the window sum in (kh, kw) order times 1/k^2.
void avg_pool2d_forward(const float* x, int64_t planes, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, float* y);

/// y[p] = mean of plane p's @p plane elements, summed in double.
void global_avg_pool_forward(const float* x, int64_t planes, int64_t plane,
                             float* y);

/// Max pooling with square window; caches argmax indices for backward.
class MaxPool2d final : public Module {
 public:
  MaxPool2d(int64_t kernel, int64_t stride);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::string name() const override { return "MaxPool2d"; }

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_, stride_;
  Shape cached_in_shape_;
  std::vector<int64_t> cached_argmax_;  // flat input index per output element
};

/// Average pooling with square window.
class AvgPool2d final : public Module {
 public:
  AvgPool2d(int64_t kernel, int64_t stride);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::string name() const override { return "AvgPool2d"; }

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_, stride_;
  Shape cached_in_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_in_shape_;
};

}  // namespace mtlsplit::nn
