// 2-d convolution layers over NCHW batches, and the forward kernels that
// both the layers and the compiled executor (graph/executor.hpp) run.
//
// Conv2d is lowered to GEMM via im2col (tensor/im2col.hpp); the backward
// pass recomputes the patch matrix from the cached input instead of caching
// it, trading a little compute for a large activation-memory saving. A
// pointwise conv (1x1, stride 1, no padding) skips im2col in both passes:
// its input already is its patch matrix.
// DepthwiseConv2d (one filter per channel, the MobileNet/EfficientNet
// workhorse) skips im2col — its arithmetic intensity is too low for it to
// pay off — and replays a table of in-bounds taps per output position,
// for four channels at once where the target has SSE2.
//
// Execution (DESIGN.md §7): both forwards parallelize on the runtime
// thread pool — conv over samples, with the im2col patch matrix living in
// each lane's persistent thread-local Workspace (no per-sample
// allocation), depthwise over (sample, four-channel block) items. Weight
// and bias gradients are reduced in sample order from independently
// computed partials, so training is bit-reproducible for any
// MTLSPLIT_NUM_THREADS.
#pragma once

#include <vector>

#include "nn/activations.hpp"
#include "nn/module.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace mtlsplit::nn {

/// y = act(W * im2col(x) + b) for @p n samples of geometry @p g, written
/// as [n, out_c, g.out_h(), g.out_w()]. @p w is [out_c, in_c*k*k]; @p b is
/// [out_c] or null.
void conv2d_forward(const float* x, int64_t n, const ConvGeom& g,
                    int64_t out_c, const float* w, const float* b, ActFn act,
                    float* y);

/// Depthwise y = act(conv(x) + b) for @p n samples of g.in_c channels,
/// written as [n, g.in_c, g.out_h(), g.out_w()]. @p w is [g.in_c, k*k];
/// @p b is [g.in_c] or null. Each output sums its in-bounds taps in
/// (kh, kw) order, starting from the bias. @p taps is the caller's scratch
/// for the tap table, grown as needed; blocks of four channels are
/// interleaved in the thread's Workspace::kDepthwise slot.
void depthwise_conv2d_forward(const float* x, int64_t n, const ConvGeom& g,
                              const float* w, const float* b, ActFn act,
                              std::vector<int32_t>& taps, float* y);

class Conv2d final : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t pad, Rng& rng, bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  Shape output_shape(const Shape& in) const override;
  std::string name() const override { return "Conv2d"; }
  int64_t flops(const Shape& in) const override {
    const Shape out = output_shape(in);
    return 2 * mtlsplit::numel(out) * in_c_ * kernel_ * kernel_;
  }

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  bool has_bias() const { return with_bias_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool with_bias_;
  Parameter weight_;  // [out_c, in_c * k * k]
  Parameter bias_;    // [out_c]
  Tensor cached_input_;
  // Backward scratch reused across calls (W^T and the per-sample wave
  // partials); grown on first use, never per-call allocated.
  std::vector<float> wt_scratch_, dw_scratch_, db_scratch_;
};

class DepthwiseConv2d final : public Module {
 public:
  DepthwiseConv2d(int64_t channels, int64_t kernel, int64_t stride,
                  int64_t pad, Rng& rng, bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  Shape output_shape(const Shape& in) const override;
  std::string name() const override { return "DepthwiseConv2d"; }
  int64_t flops(const Shape& in) const override {
    return 2 * mtlsplit::numel(output_shape(in)) * kernel_ * kernel_;
  }

  int64_t channels() const { return channels_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  bool has_bias() const { return with_bias_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  int64_t channels_, kernel_, stride_, pad_;
  bool with_bias_;
  Parameter weight_;  // [channels, k * k]
  Parameter bias_;    // [channels]
  Tensor cached_input_;
  std::vector<int32_t> taps_;  // forward tap-table scratch
};

}  // namespace mtlsplit::nn
