// Affine int8 quantisation of the shared feature Z_b — the in-model
// compression extension the SC literature applies before transmission
// (paper §2.1 cites Li et al. [17]); bench_paper's quant scenario measures
// the bytes-vs-accuracy trade-off it buys on top of MTL-Split.
//
//   q = clamp(round(x / scale) + zero_point, -128, 127)
//   x' = (q - zero_point) * scale
// with scale/zero_point chosen from the tensor's min/max.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace mtlsplit::sc {

struct QuantizedTensor {
  Shape shape;
  std::vector<int8_t> values;
  float scale = 1.0f;
  int32_t zero_point = 0;

  int64_t payload_bytes() const {
    return static_cast<int64_t>(values.size());
  }
};

/// Quantises @p t to int8 with per-tensor affine parameters.
QuantizedTensor quantize_int8(const Tensor& t);

/// Reconstructs a float tensor from @p q.
Tensor dequantize_int8(const QuantizedTensor& q);

/// Max absolute reconstruction error of a quantise/dequantise round trip;
/// bounded by scale/2 (plus clamping at the range edges).
float quantization_error(const Tensor& t);

}  // namespace mtlsplit::sc
