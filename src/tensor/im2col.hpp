// im2col / col2im lowering used by the convolution layers.
//
// Convolution is implemented as GEMM over an unrolled patch matrix:
//   cols  : [C*KH*KW, OH*OW]   (one image)
//   weight: [OC, C*KH*KW]
//   out   : weight * cols = [OC, OH*OW]
// col2im is the exact adjoint and is used by the backward pass. Neither
// tests bounds per element: im2col copies each output row as one run from
// a zero-bordered copy of the plane, and col2im adds each output row's
// in-bounds run.
#pragma once

#include "tensor/tensor.hpp"

namespace mtlsplit {

struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel_h = 0, kernel_w = 0;
  int64_t stride = 1;
  int64_t pad = 0;

  int64_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }

  /// 1x1, stride 1, no padding: the patch matrix [C, H*W] is the image
  /// itself, so a conv can hand its input to the GEMM without im2col.
  bool pointwise() const {
    return kernel_h == 1 && kernel_w == 1 && stride == 1 && pad == 0;
  }

  void validate() const {
    check_arg(in_c > 0 && in_h > 0 && in_w > 0, "ConvGeom: bad input dims");
    check_arg(kernel_h > 0 && kernel_w > 0, "ConvGeom: bad kernel dims");
    check_arg(stride > 0, "ConvGeom: stride must be positive");
    check_arg(pad >= 0, "ConvGeom: negative padding");
    check_arg(out_h() > 0 && out_w() > 0, "ConvGeom: empty output for input ",
              in_h, "x", in_w, " kernel ", kernel_h, "x", kernel_w,
              " stride ", stride, " pad ", pad);
  }
};

/// Unrolls one image [C, H, W] (flattened view into @p img) into the patch
/// matrix [C*KH*KW, OH*OW] written to @p cols (capacity is the caller's
/// responsibility — conv layers hand in a runtime::Workspace buffer that
/// persists across samples instead of reallocating per call). A padded
/// geometry borders each plane in the thread's Workspace::kIm2colPlane
/// slot.
void im2col(const float* img, const ConvGeom& g, float* cols);

/// Tensor-backed convenience overload; resizes @p cols when needed.
void im2col(const float* img, const ConvGeom& g, Tensor& cols);

/// Adjoint of im2col: accumulates the patch matrix [C*KH*KW, OH*OW] at
/// @p cols back into @p img (img must be pre-zeroed; size C*H*W).
void col2im(const float* cols, const ConvGeom& g, float* img);

/// Tensor-backed convenience overload; validates the cols shape.
void col2im(const Tensor& cols, const ConvGeom& g, float* img);

}  // namespace mtlsplit
