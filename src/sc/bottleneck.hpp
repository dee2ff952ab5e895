// Bottleneck autoencoder for Z_b — the "in-model compression" idea the SC
// literature builds on (paper §2.1: encoder z_l = F(x) on the edge,
// decoder x̄ = G(z_l) remotely, with d(x, x̄) measuring the codec).
//
// MTL-Split's Z_b is already compact, but a learned linear bottleneck can
// shrink it further: the edge ships the K-dim code instead of the D-dim
// feature. bench_paper's bottleneck scenario trains one on real backbone
// features and measures bytes vs task accuracy.
#pragma once

#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace mtlsplit::sc {

struct BottleneckConfig {
  int64_t feature_dim = 0;  ///< D = |Z_b|
  int64_t code_dim = 0;     ///< K < D, the transmitted width
  float lr = 1e-3f;
  int64_t batch_size = 32;
  uint64_t seed = 71;
};

class BottleneckCodec {
 public:
  explicit BottleneckCodec(const BottleneckConfig& cfg);

  /// Trains encoder+decoder to reconstruct @p features [N, D] under MSE
  /// for @p epochs; returns the final epoch's mean reconstruction error.
  float train(const Tensor& features, int64_t epochs);

  /// Edge side: [N, D] -> [N, K].
  Tensor encode(const Tensor& zb);
  /// Server side: [N, K] -> [N, D].
  Tensor decode(const Tensor& code);

  /// Mean squared d(Z_b, G(F(Z_b))) on the given features.
  float reconstruction_error(const Tensor& features);

  int64_t feature_dim() const { return cfg_.feature_dim; }
  int64_t code_dim() const { return cfg_.code_dim; }
  /// Wire bytes per sample for the code vs the raw feature (float32).
  double compression_ratio() const {
    return static_cast<double>(cfg_.feature_dim) /
           static_cast<double>(cfg_.code_dim);
  }

 private:
  BottleneckConfig cfg_;
  Rng rng_;
  nn::Sequential encoder_;
  nn::Sequential decoder_;
};

}  // namespace mtlsplit::sc
