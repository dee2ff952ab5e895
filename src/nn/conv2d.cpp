#include "nn/conv2d.hpp"

#include <algorithm>
#include <vector>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#include "nn/init.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit::nn {

namespace {

ConvGeom make_geom(int64_t c, int64_t h, int64_t w, int64_t k, int64_t stride,
                   int64_t pad) {
  ConvGeom g;
  g.in_c = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = k;
  g.kernel_w = k;
  g.stride = stride;
  g.pad = pad;
  g.validate();
  return g;
}

#if defined(__SSE2__)
constexpr bool kBlockChannels = true;

/// q[4 * i + l] = p[l * stride + i] for i < len, l < 4: four planes
/// interleaved lane by lane.
void interleave4(const float* p, int64_t stride, int64_t len, float* q) {
  int64_t i = 0;
  for (; i + 4 <= len; i += 4) {
    __m128 r0 = _mm_loadu_ps(p + i), r1 = _mm_loadu_ps(p + stride + i);
    __m128 r2 = _mm_loadu_ps(p + 2 * stride + i);
    __m128 r3 = _mm_loadu_ps(p + 3 * stride + i);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(q + 4 * i, r0);
    _mm_storeu_ps(q + 4 * i + 4, r1);
    _mm_storeu_ps(q + 4 * i + 8, r2);
    _mm_storeu_ps(q + 4 * i + 12, r3);
  }
  for (; i < len; ++i)
    for (int64_t l = 0; l < 4; ++l) q[4 * i + l] = p[l * stride + i];
}

/// The inverse of interleave4: p[l * stride + i] = q[4 * i + l].
void deinterleave4(const float* q, int64_t len, float* p, int64_t stride) {
  int64_t i = 0;
  for (; i + 4 <= len; i += 4) {
    __m128 r0 = _mm_loadu_ps(q + 4 * i), r1 = _mm_loadu_ps(q + 4 * i + 4);
    __m128 r2 = _mm_loadu_ps(q + 4 * i + 8);
    __m128 r3 = _mm_loadu_ps(q + 4 * i + 12);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(p + i, r0);
    _mm_storeu_ps(p + stride + i, r1);
    _mm_storeu_ps(p + 2 * stride + i, r2);
    _mm_storeu_ps(p + 3 * stride + i, r3);
  }
  for (; i < len; ++i)
    for (int64_t l = 0; l < 4; ++l) p[l * stride + i] = q[4 * i + l];
}

/// Depthwise over four consecutive channels: input planes @p x (@p hw
/// apart), kernels @p w (@p kk apart), biases @p b (or null), output
/// planes @p y (@p ohw apart). The planes and kernels are interleaved in
/// the thread's kDepthwise workspace so that one multiply and one add
/// apply a tap to all four channels; each lane sums the bias and then the
/// taps of tap table @p tt in order, exactly as the one-channel loop does.
void depthwise_block4(const int32_t* tt, const float* x, int64_t hw,
                      const float* w, int64_t kk, const float* b, int64_t ohw,
                      float* y) {
  float* xi = runtime::tls_workspace().floats(runtime::Workspace::kDepthwise,
                                              4 * (hw + kk + ohw));
  float* wi = xi + 4 * hw;
  float* yi = wi + 4 * kk;
  interleave4(x, hw, hw, xi);
  interleave4(w, kk, kk, wi);
  const __m128 bias = b != nullptr ? _mm_loadu_ps(b) : _mm_setzero_ps();
  const int32_t* t = tt;
  for (int64_t o = 0; o < ohw; ++o) {
    __m128 acc = bias;
    const int32_t cnt = *t++;
    for (int32_t m = 0; m < cnt; ++m, t += 2)
      acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(wi + 4 * t[0]),
                                       _mm_loadu_ps(xi + 4 * t[1])));
    _mm_storeu_ps(yi + 4 * o, acc);
  }
  deinterleave4(yi, ohw, y, ohw);
}
#else
constexpr bool kBlockChannels = false;  // every channel takes the scalar loop

void depthwise_block4(const int32_t*, const float*, int64_t, const float*,
                      int64_t, const float*, int64_t, float*) {}
#endif

}  // namespace

// ------------------------------------------------------------------ kernels

void conv2d_forward(const float* x, int64_t n, const ConvGeom& g,
                    int64_t out_c, const float* w, const float* b, ActFn act,
                    float* y) {
  const int64_t ohw = g.out_h() * g.out_w();
  const int64_t fan_in = g.in_c * g.kernel_h * g.kernel_w;
  const int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const bool pointwise = g.pointwise();
  // Batch-level parallelism; each lane keeps one persistent im2col patch
  // matrix in its thread-local workspace instead of a fresh Tensor per
  // sample. A pointwise conv's input already is its patch matrix, so the
  // GEMM reads each sample in place. For n == 1 (edge inference) the loop
  // runs inline and the GEMM parallelizes over its row blocks instead.
  runtime::parallel_for(0, n, 1, [&](int64_t lo, int64_t hi) {
    float* cols = pointwise ? nullptr
                            : runtime::tls_workspace().floats(
                                  runtime::Workspace::kIm2col, fan_in * ohw);
    for (int64_t i = lo; i < hi; ++i) {
      const float* xi = x + i * in_stride;
      if (!pointwise) im2col(xi, g, cols);
      float* yi = y + i * out_c * ohw;
      ops::detail::gemm(out_c, ohw, fan_in, w, pointwise ? xi : cols, yi);
      for (int64_t c = 0; c < out_c; ++c) {
        float* plane = yi + c * ohw;
        if (b != nullptr) {
          const float bc = b[c];
          for (int64_t j = 0; j < ohw; ++j) plane[j] += bc;
        }
        act_sweep(act, plane, ohw, plane);
      }
    }
  });
}

void depthwise_conv2d_forward(const float* x, int64_t n, const ConvGeom& g,
                              const float* w, const float* b, ActFn act,
                              std::vector<int32_t>& taps, float* y) {
  const int64_t k = g.kernel_w, h = g.in_h, wd = g.in_w;
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t channels = g.in_c;
  // The in-bounds taps of an output position are the same for every
  // (sample, channel) plane, so they are listed once: per position a tap
  // count, then a (weight index, input offset) pair per tap in (kh, kw)
  // order. The plane loop replays them without re-testing bounds.
  const auto need = static_cast<size_t>(oh * ow * (1 + 2 * k * k));
  if (taps.size() < need) taps.resize(need);
  int32_t* tt = taps.data();
  int64_t pos = 0;
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      const int64_t cnt_at = pos++;
      int32_t cnt = 0;
      for (int64_t kh = 0; kh < k; ++kh) {
        const int64_t iy = oy * g.stride + kh - g.pad;
        if (iy < 0 || iy >= h) continue;
        for (int64_t kw = 0; kw < k; ++kw) {
          const int64_t ix = ox * g.stride + kw - g.pad;
          if (ix < 0 || ix >= wd) continue;
          tt[pos++] = static_cast<int32_t>(kh * k + kw);
          tt[pos++] = static_cast<int32_t>(iy * wd + ix);
          cnt++;
        }
      }
      tt[cnt_at] = cnt;
    }
  }
  const int64_t kk = k * k, hw = h * wd, ohw = oh * ow;
  // Work items per sample: the blocks of four channels, then the
  // leftover channels one plane each. All writes are disjoint.
  const int64_t blocks = kBlockChannels ? channels / 4 : 0;
  const int64_t items = blocks + channels - 4 * blocks;
  runtime::parallel_for(0, n * items, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t it = lo; it < hi; ++it) {
      const int64_t i = it / items, j = it % items;
      const int64_t c = j < blocks ? 4 * j : 4 * blocks + (j - blocks);
      const float* xc = x + (i * channels + c) * hw;
      float* yc = y + (i * channels + c) * ohw;
      if (j < blocks) {
        depthwise_block4(tt, xc, hw, w + c * kk, kk,
                         b != nullptr ? b + c : nullptr, ohw, yc);
      } else {
        const float* kern = w + c * kk;
        const float bc = b != nullptr ? b[c] : 0.0f;
        const int32_t* t = tt;
        for (int64_t o = 0; o < ohw; ++o) {
          float acc = bc;
          const int32_t cnt = *t++;
          for (int32_t m = 0; m < cnt; ++m, t += 2)
            acc += kern[t[0]] * xc[t[1]];
          yc[o] = acc;
        }
      }
      // A block's four output planes are contiguous: one sweep covers them.
      act_sweep(act, yc, (j < blocks ? 4 : 1) * ohw, yc);
    }
  });
}

// ------------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, Rng& rng, bool with_bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias) {
  check_arg(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
                pad >= 0,
            "Conv2d: bad configuration");
  const int64_t fan_in = in_c_ * kernel_ * kernel_;
  Tensor w({out_c_, fan_in});
  kaiming_normal(w, fan_in, rng);
  weight_ = Parameter("weight", std::move(w));
  if (with_bias_) bias_ = Parameter("bias", Tensor({out_c_}));
}

Tensor Conv2d::forward(const Tensor& x) {
  check_arg(x.dim() == 4 && x.size(1) == in_c_,
            "Conv2d: expected [N, ", in_c_, ", H, W], got ", x.shape());
  const ConvGeom g =
      make_geom(in_c_, x.size(2), x.size(3), kernel_, stride_, pad_);
  cached_input_ = x;
  Tensor out({x.size(0), out_c_, g.out_h(), g.out_w()});
  conv2d_forward(x.data(), x.size(0), g, out_c_, weight_.value.data(),
                 with_bias_ ? bias_.value.data() : nullptr, ActFn::kNone,
                 out.data());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  check_arg(x.numel() > 0, "Conv2d::backward called before forward");
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeom g = make_geom(in_c_, h, w, kernel_, stride_, pad_);
  const int64_t oh = g.out_h(), ow = g.out_w();
  check_arg(grad_out.shape() == Shape{n, out_c_, oh, ow},
            "Conv2d::backward: gradient shape mismatch");

  Tensor grad_in(x.shape());
  const int64_t fan_in = in_c_ * kernel_ * kernel_;
  const int64_t ohw = oh * ow;
  const int64_t in_stride = in_c_ * h * w;
  const int64_t out_stride = out_c_ * ohw;
  const int64_t wsize = out_c_ * fan_in;
  const float* px = x.data();
  const float* pg = grad_out.data();
  const bool pointwise = g.pointwise();

  // W^T once, shared read-only by every lane (dcols = W^T . g per sample).
  if (static_cast<int64_t>(wt_scratch_.size()) < wsize)
    wt_scratch_.resize(static_cast<size_t>(wsize));
  float* wt = wt_scratch_.data();
  ops::detail::transpose(weight_.value.data(), out_c_, fan_in, wt);

  // dW/db accumulate across samples; to stay bit-identical for any thread
  // count (and to the seed's per-sample ordering) each sample's partial is
  // computed independently, then reduced serially in sample order. Waves
  // bound the partial-buffer memory for large batches; the buffers are
  // fully overwritten per wave, so no zeroing between calls.
  const int64_t wave = std::min<int64_t>(n, 16);
  if (static_cast<int64_t>(dw_scratch_.size()) < wave * wsize)
    dw_scratch_.resize(static_cast<size_t>(wave * wsize));
  if (with_bias_ && static_cast<int64_t>(db_scratch_.size()) < wave * out_c_)
    db_scratch_.resize(static_cast<size_t>(wave * out_c_));
  float* dws = dw_scratch_.data();
  float* dbs = with_bias_ ? db_scratch_.data() : nullptr;

  for (int64_t w0 = 0; w0 < n; w0 += wave) {
    const int64_t w1 = std::min(w0 + wave, n);
    runtime::parallel_for(w0, w1, 1, [&](int64_t lo, int64_t hi) {
      auto& ws = runtime::tls_workspace();
      float* cols = pointwise
                        ? nullptr
                        : ws.floats(runtime::Workspace::kIm2col, fan_in * ohw);
      float* dcols =
          ws.floats(runtime::Workspace::kConvScratch, fan_in * ohw);
      for (int64_t i = lo; i < hi; ++i) {
        // Recompute the patch matrix (memory/compute trade-off, as in the
        // seed), or read a pointwise conv's input in place; gmat is the
        // contiguous [out_c, oh*ow] slice of grad_out.
        const float* xi = px + i * in_stride;
        if (!pointwise) im2col(xi, g, cols);
        const float* gmat = pg + i * out_stride;
        ops::detail::gemm_nt(out_c_, ohw, fan_in, gmat,
                             pointwise ? xi : cols, dws + (i - w0) * wsize);
        ops::detail::gemm(fan_in, ohw, out_c_, wt, gmat, dcols);
        col2im(dcols, g, grad_in.data() + i * in_stride);
        if (with_bias_) {
          float* db = dbs + (i - w0) * out_c_;
          for (int64_t c = 0; c < out_c_; ++c) {
            double acc = 0.0;
            for (int64_t j = 0; j < ohw; ++j) acc += gmat[c * ohw + j];
            db[c] = static_cast<float>(acc);
          }
        }
      }
    });
    float* pgw = weight_.grad.data();
    float* pgb = with_bias_ ? bias_.grad.data() : nullptr;
    for (int64_t i = w0; i < w1; ++i) {
      const float* dw = dws + (i - w0) * wsize;
      for (int64_t j = 0; j < wsize; ++j) pgw[j] += dw[j];
      if (pgb != nullptr) {
        const float* db = dbs + (i - w0) * out_c_;
        for (int64_t c = 0; c < out_c_; ++c) pgb[c] += db[c];
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Shape Conv2d::output_shape(const Shape& in) const {
  check_arg(in.size() == 4 && in[1] == in_c_,
            "Conv2d::output_shape: bad input shape");
  const ConvGeom g = make_geom(in_c_, in[2], in[3], kernel_, stride_, pad_);
  return {in[0], out_c_, g.out_h(), g.out_w()};
}

// ---------------------------------------------------------- DepthwiseConv2d

DepthwiseConv2d::DepthwiseConv2d(int64_t channels, int64_t kernel,
                                 int64_t stride, int64_t pad, Rng& rng,
                                 bool with_bias)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias) {
  check_arg(channels > 0 && kernel > 0 && stride > 0 && pad >= 0,
            "DepthwiseConv2d: bad configuration");
  const int64_t fan_in = kernel_ * kernel_;
  Tensor w({channels_, fan_in});
  kaiming_normal(w, fan_in, rng);
  weight_ = Parameter("weight", std::move(w));
  if (with_bias_) bias_ = Parameter("bias", Tensor({channels_}));
}

Tensor DepthwiseConv2d::forward(const Tensor& x) {
  check_arg(x.dim() == 4 && x.size(1) == channels_,
            "DepthwiseConv2d: expected [N, ", channels_, ", H, W], got ",
            x.shape());
  const ConvGeom g =
      make_geom(channels_, x.size(2), x.size(3), kernel_, stride_, pad_);
  cached_input_ = x;
  Tensor out({x.size(0), channels_, g.out_h(), g.out_w()});
  depthwise_conv2d_forward(x.data(), x.size(0), g, weight_.value.data(),
                           with_bias_ ? bias_.value.data() : nullptr,
                           ActFn::kNone, taps_, out.data());
  return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  check_arg(x.numel() > 0, "DepthwiseConv2d::backward called before forward");
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const ConvGeom g = make_geom(1, h, w, kernel_, stride_, pad_);
  const int64_t oh = g.out_h(), ow = g.out_w();
  check_arg(grad_out.shape() == Shape{n, channels_, oh, ow},
            "DepthwiseConv2d::backward: gradient shape mismatch");

  Tensor grad_in(x.shape());
  const float* px = x.data();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  const float* pw = weight_.value.data();
  float* pgw = weight_.grad.data();
  float* pgb = with_bias_ ? bias_.grad.data() : nullptr;
  // Parallel over channels: each channel owns its kernel/bias gradient and
  // its set of (i, c) planes, and samples are visited in index order within
  // a channel, so accumulation matches the serial pass bit for bit.
  runtime::parallel_for(0, channels_, 1, [&](int64_t clo, int64_t chi) {
    for (int64_t c = clo; c < chi; ++c) {
      const float* kern = pw + c * kernel_ * kernel_;
      float* gkern = pgw + c * kernel_ * kernel_;
      for (int64_t i = 0; i < n; ++i) {
        const float* plane = px + (i * channels_ + c) * h * w;
        const float* gplane = pg + (i * channels_ + c) * oh * ow;
        float* giplane = pgi + (i * channels_ + c) * h * w;
        double bacc = 0.0;  // flushed per sample, like the serial pass
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t xx = 0; xx < ow; ++xx) {
            const float gv = gplane[y * ow + xx];
            if (gv == 0.0f) continue;
            bacc += gv;
            for (int64_t kh = 0; kh < kernel_; ++kh) {
              const int64_t iy = y * stride_ + kh - pad_;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kw = 0; kw < kernel_; ++kw) {
                const int64_t ix = xx * stride_ + kw - pad_;
                if (ix < 0 || ix >= w) continue;
                gkern[kh * kernel_ + kw] += gv * plane[iy * w + ix];
                giplane[iy * w + ix] += gv * kern[kh * kernel_ + kw];
              }
            }
          }
        }
        if (pgb) pgb[c] += static_cast<float>(bacc);
      }
    }
  });
  return grad_in;
}

std::vector<Parameter*> DepthwiseConv2d::parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Shape DepthwiseConv2d::output_shape(const Shape& in) const {
  check_arg(in.size() == 4 && in[1] == channels_,
            "DepthwiseConv2d::output_shape: bad input shape");
  const ConvGeom g = make_geom(1, in[2], in[3], kernel_, stride_, pad_);
  return {in[0], channels_, g.out_h(), g.out_w()};
}

}  // namespace mtlsplit::nn
