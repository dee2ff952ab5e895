#include "tensor/im2col.hpp"

#include <algorithm>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#include "runtime/workspace.hpp"

namespace mtlsplit {

namespace {

/// dst[x] = src[x * stride] for x < n. A unit-stride run moves four lanes
/// at a time: a library copy call costs more than the 4-32 floats of a
/// served row.
void copy_run(const float* src, int64_t stride, int64_t n, float* dst) {
  int64_t x = 0;
#if defined(__SSE2__)
  if (stride == 1)
    for (; x + 4 <= n; x += 4) _mm_storeu_ps(dst + x, _mm_loadu_ps(src + x));
#endif
  for (; x < n; ++x) dst[x] = src[x * stride];
}

/// dst[x * stride] += src[x] for x < n. The unit-stride loop is written
/// out so that the compiler vectorizes it; the lanes add what the scalar
/// loop adds.
void add_run(const float* __restrict src, int64_t n, float* __restrict dst,
             int64_t stride) {
  if (stride == 1) {
    for (int64_t x = 0; x < n; ++x) dst[x] += src[x];
  } else {
    for (int64_t x = 0; x < n; ++x) dst[x * stride] += src[x];
  }
}

/// The outputs o in [0, n) whose input index o * stride + shift lies in
/// [0, len), as the half-open run [lo, hi) (empty when lo == hi).
void in_bounds_run(int64_t n, int64_t stride, int64_t shift, int64_t len,
                   int64_t& lo, int64_t& hi) {
  lo = shift >= 0 ? 0 : std::min(n, (stride - 1 - shift) / stride);
  hi = shift >= len ? 0 : std::min(n, (len - 1 - shift) / stride + 1);
  hi = std::max(lo, hi);
}

}  // namespace

void im2col(const float* img, const ConvGeom& g, float* cols) {
  g.validate();
  const int64_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  // Each plane is first copied into a zero-bordered plane of pitch wp, so
  // every output row of every (c, kh, kw) row of cols is one run of ow
  // reads, `stride` apart, with no bounds test; the border supplies the
  // padding zeros. The bordered plane spans every row and column a patch
  // reads: out_h() truncates, so the last patch may overhang the padded
  // input (a 2x2 kernel at stride 2 on a 1x1 plane) and read zeros there.
  // A plane no patch reads outside of is read in place.
  const int64_t hp = std::max(g.in_h + 2 * g.pad, (oh - 1) * s + g.kernel_h);
  const int64_t wp = std::max(g.in_w + 2 * g.pad, (ow - 1) * s + g.kernel_w);
  float* bordered = nullptr;
  if (hp != g.in_h || wp != g.in_w) {
    bordered = runtime::tls_workspace().floats(
        runtime::Workspace::kIm2colPlane, hp * wp);
    std::fill(bordered, bordered + hp * wp, 0.0f);
  }
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    if (bordered != nullptr) {
      // Only the interior is written, so the border stays zero.
      for (int64_t y = 0; y < g.in_h; ++y)
        copy_run(plane + y * g.in_w, 1, g.in_w,
                 bordered + (y + g.pad) * wp + g.pad);
      plane = bordered;
    }
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        const float* src = plane + kh * wp + kw;
        for (int64_t y = 0; y < oh; ++y)
          copy_run(src + y * s * wp, s, ow, crow + y * ow);
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
  const int64_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  // Within one (c, kh, kw) row of cols no two outputs land on the same
  // input element, so adding the rows in (c, kh, kw) order, each output
  // row's in-bounds run at a time, adds into every element in the order
  // of a per-element loop.
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      int64_t y0, y1;
      in_bounds_run(oh, s, kh - g.pad, g.in_h, y0, y1);
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        int64_t x0, x1;
        in_bounds_run(ow, s, kw - g.pad, g.in_w, x0, x1);
        if (x0 == x1) continue;
        const float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        for (int64_t y = y0; y < y1; ++y)
          add_run(crow + y * ow + x0, x1 - x0,
                  plane + (y * s + kh - g.pad) * g.in_w + x0 * s + kw - g.pad,
                  s);
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
