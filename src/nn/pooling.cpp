#include "nn/pooling.hpp"

#include <limits>

#include "runtime/thread_pool.hpp"

namespace mtlsplit::nn {

namespace {

// (sample, channel) planes per parallel chunk for the pooling loops.
constexpr int64_t kPlaneGrain = 8;

int64_t pooled_extent(int64_t in, int64_t kernel, int64_t stride) {
  check_arg(in >= kernel, "pooling: input extent ", in,
            " smaller than kernel ", kernel);
  return (in - kernel) / stride + 1;
}

}  // namespace

// ------------------------------------------------------------------ kernels

void max_pool2d_forward(const float* x, int64_t planes, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, float* y,
                        int64_t* argmax) {
  const int64_t oh = pooled_extent(h, kernel, stride);
  const int64_t ow = pooled_extent(w, kernel, stride);
  runtime::parallel_for(0, planes, kPlaneGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* plane = x + i * h * w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t iy = oy * stride + kh;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t ix = ox * stride + kw;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          const int64_t o = (i * oh + oy) * ow + ox;
          y[o] = best;
          if (argmax != nullptr) argmax[o] = i * h * w + best_idx;
        }
      }
    }
  });
}

void avg_pool2d_forward(const float* x, int64_t planes, int64_t h, int64_t w,
                        int64_t kernel, int64_t stride, float* y) {
  const int64_t oh = pooled_extent(h, kernel, stride);
  const int64_t ow = pooled_extent(w, kernel, stride);
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  runtime::parallel_for(0, planes, kPlaneGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* plane = x + i * h * w;
      float* oplane = y + i * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (int64_t kh = 0; kh < kernel; ++kh)
            for (int64_t kw = 0; kw < kernel; ++kw)
              acc += plane[(oy * stride + kh) * w + ox * stride + kw];
          oplane[oy * ow + ox] = acc * inv;
        }
      }
    }
  });
}

void global_avg_pool_forward(const float* x, int64_t planes, int64_t plane,
                             float* y) {
  const float inv = 1.0f / static_cast<float>(plane);
  runtime::parallel_for(0, planes, kPlaneGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      const float* p = x + i * plane;
      for (int64_t j = 0; j < plane; ++j) acc += p[j];
      y[i] = static_cast<float>(acc) * inv;
    }
  });
}

// ---------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride) {
  check_arg(kernel > 0 && stride > 0, "MaxPool2d: bad configuration");
}

Tensor MaxPool2d::forward(const Tensor& x) {
  check_arg(x.dim() == 4, "MaxPool2d: expected NCHW input");
  cached_in_shape_ = x.shape();
  Tensor out(output_shape(x.shape()));
  cached_argmax_.resize(static_cast<size_t>(out.numel()));
  max_pool2d_forward(x.data(), x.size(0) * x.size(1), x.size(2), x.size(3),
                     kernel_, stride_, out.data(), cached_argmax_.data());
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  check_arg(!cached_in_shape_.empty(),
            "MaxPool2d::backward called before forward");
  check_arg(grad_out.numel() == static_cast<int64_t>(cached_argmax_.size()),
            "MaxPool2d::backward: gradient shape mismatch");
  Tensor grad_in(cached_in_shape_);
  float* pgi = grad_in.data();
  const float* pg = grad_out.data();
  // Argmax indices from plane p only point into input plane p, so a
  // per-plane split keeps the scatter race-free.
  const int64_t planes = cached_in_shape_[0] * cached_in_shape_[1];
  if (planes == 0) return grad_in;  // empty batch: nothing to scatter
  const int64_t out_plane =
      static_cast<int64_t>(cached_argmax_.size()) / planes;
  runtime::parallel_for(0, planes, kPlaneGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p)
      for (int64_t j = p * out_plane; j < (p + 1) * out_plane; ++j)
        pgi[cached_argmax_[static_cast<size_t>(j)]] += pg[j];
  });
  return grad_in;
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  check_arg(in.size() == 4, "MaxPool2d::output_shape: expected NCHW");
  return {in[0], in[1], pooled_extent(in[2], kernel_, stride_),
          pooled_extent(in[3], kernel_, stride_)};
}

// ---------------------------------------------------------------- AvgPool2d

AvgPool2d::AvgPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride) {
  check_arg(kernel > 0 && stride > 0, "AvgPool2d: bad configuration");
}

Tensor AvgPool2d::forward(const Tensor& x) {
  check_arg(x.dim() == 4, "AvgPool2d: expected NCHW input");
  cached_in_shape_ = x.shape();
  Tensor out(output_shape(x.shape()));
  avg_pool2d_forward(x.data(), x.size(0) * x.size(1), x.size(2), x.size(3),
                     kernel_, stride_, out.data());
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  check_arg(!cached_in_shape_.empty(),
            "AvgPool2d::backward called before forward");
  const int64_t h = cached_in_shape_[2], w = cached_in_shape_[3];
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const int64_t planes = cached_in_shape_[0] * cached_in_shape_[1];
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  runtime::parallel_for(0, planes, kPlaneGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* gplane = pg + i * oh * ow;
      float* giplane = pgi + i * h * w;
      for (int64_t y = 0; y < oh; ++y)
        for (int64_t xx = 0; xx < ow; ++xx) {
          const float gv = gplane[y * ow + xx] * inv;
          for (int64_t kh = 0; kh < kernel_; ++kh)
            for (int64_t kw = 0; kw < kernel_; ++kw)
              giplane[(y * stride_ + kh) * w + xx * stride_ + kw] += gv;
        }
    }
  });
  return grad_in;
}

Shape AvgPool2d::output_shape(const Shape& in) const {
  check_arg(in.size() == 4, "AvgPool2d::output_shape: expected NCHW");
  return {in[0], in[1], pooled_extent(in[2], kernel_, stride_),
          pooled_extent(in[3], kernel_, stride_)};
}

// ------------------------------------------------------------ GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& x) {
  check_arg(x.dim() == 4, "GlobalAvgPool: expected NCHW input");
  const int64_t plane = x.size(2) * x.size(3);
  check_arg(plane > 0, "GlobalAvgPool: empty spatial extent");
  cached_in_shape_ = x.shape();
  Tensor out({x.size(0), x.size(1)});
  global_avg_pool_forward(x.data(), x.size(0) * x.size(1), plane, out.data());
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  check_arg(!cached_in_shape_.empty(),
            "GlobalAvgPool::backward called before forward");
  const int64_t n = cached_in_shape_[0], c = cached_in_shape_[1];
  const int64_t plane = cached_in_shape_[2] * cached_in_shape_[3];
  check_arg(grad_out.shape() == Shape{n, c},
            "GlobalAvgPool::backward: gradient shape mismatch");
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  runtime::parallel_for(0, n * c, kPlaneGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float gv = pg[i] * inv;
      float* p = pgi + i * plane;
      for (int64_t j = 0; j < plane; ++j) p[j] = gv;
    }
  });
  return grad_in;
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  check_arg(in.size() == 4, "GlobalAvgPool::output_shape: expected NCHW");
  return {in[0], in[1]};
}

}  // namespace mtlsplit::nn
