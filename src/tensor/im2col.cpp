#include "tensor/im2col.hpp"

namespace mtlsplit {

void im2col(const float* img, const ConvGeom& g, float* cols) {
  g.validate();
  const int64_t oh = g.out_h(), ow = g.out_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.pad;
          const bool y_ok = iy >= 0 && iy < g.in_h;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.pad;
            crow[y * ow + x] = (y_ok && ix >= 0 && ix < g.in_w)
                                   ? plane[iy * g.in_w + ix]
                                   : 0.0f;
          }
        }
      }
    }
  }
}

void im2col(const float* img, const ConvGeom& g, Tensor& cols) {
  g.validate();
  const int64_t rows = g.in_c * g.kernel_h * g.kernel_w;
  const int64_t oh = g.out_h(), ow = g.out_w();
  if (cols.shape() != Shape{rows, oh * ow}) cols = Tensor({rows, oh * ow});
  im2col(img, g, cols.data());
}

void col2im(const float* cols, const ConvGeom& g, float* img) {
  g.validate();
  const int64_t oh = g.out_h(), ow = g.out_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            plane[iy * g.in_w + ix] += crow[y * ow + x];
          }
        }
      }
    }
  }
}

void col2im(const Tensor& cols, const ConvGeom& g, float* img) {
  g.validate();
  const int64_t rows = g.in_c * g.kernel_h * g.kernel_w;
  check_arg(cols.shape() == Shape{rows, g.out_h() * g.out_w()},
            "col2im: cols shape ", cols.shape(), " does not match geometry");
  col2im(cols.data(), g, img);
}

}  // namespace mtlsplit
