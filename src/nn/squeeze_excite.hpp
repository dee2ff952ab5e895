// Squeeze-and-Excitation block (Hu et al.), as used inside MobileNetV3 and
// EfficientNet blocks:
//
//   s = HardSigmoid(W2 . ReLU(W1 . GlobalAvgPool(x)))    s : [N, C]
//   y[n,c,h,w] = x[n,c,h,w] * s[n,c]
//
// The backward pass handles both gradient paths into x: the direct
// elementwise product and the path through the pooled gate.
#pragma once

#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/pooling.hpp"
#include "nn/activations.hpp"

namespace mtlsplit::nn {

/// The excite step: y[p, :] = x[p, :] * scale[p] over @p planes planes of
/// @p plane elements (p runs over (sample, channel)). SqueezeExcite::forward
/// and the compiled executor's channel-scale nodes both run this.
void channel_scale_forward(const float* x, int64_t planes, int64_t plane,
                           const float* scale, float* y);

class SqueezeExcite final : public Module {
 public:
  /// @p reduction divides the channel count for the bottleneck FC layer.
  SqueezeExcite(int64_t channels, int64_t reduction, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::string name() const override { return "SqueezeExcite"; }
  int64_t flops(const Shape& in) const override {
    const int64_t n = in.at(0);
    const int64_t red = fc1_.out_features();
    return mtlsplit::numel(in)                  // pooling reads
           + 2 * n * channels_ * red * 2        // two FC layers
           + mtlsplit::numel(in);               // channelwise scale
  }
  int64_t activation_elems(const Shape& in) const override {
    // pooled [N,C] + fc1 out + fc2 out [N,C] + scaled output [N,C,H,W].
    const int64_t n = in.at(0);
    return n * channels_ + n * fc1_.out_features() + n * channels_ +
           mtlsplit::numel(in);
  }

  int64_t channels() const { return channels_; }
  Linear& fc1() { return fc1_; }
  Linear& fc2() { return fc2_; }

 private:
  int64_t channels_;
  GlobalAvgPool pool_;
  Linear fc1_;
  ReLU relu_;
  Linear fc2_;
  HardSigmoid gate_;
  Tensor cached_input_;
  Tensor cached_scale_;  // [N, C]
};

}  // namespace mtlsplit::nn
