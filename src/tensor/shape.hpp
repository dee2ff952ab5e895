// Shape utilities: dimension vectors, element counts, row-major strides.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "tensor/check.hpp"

namespace mtlsplit {

/// Dimension sizes of a tensor, outermost first (row-major layout).
using Shape = std::vector<int64_t>;

/// Total number of elements described by @p shape (1 for a scalar shape {}).
inline int64_t numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    check_arg(d >= 0, "numel: negative dimension");
    n *= d;
  }
  return n;
}

/// Row-major strides (in elements) for @p shape.
inline Shape row_major_strides(const Shape& shape) {
  Shape strides(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i) + 1] * shape[static_cast<size_t>(i) + 1];
  }
  return strides;
}

/// True when two shapes are element-wise identical.
inline bool same_shape(const Shape& a, const Shape& b) { return a == b; }

/// Human-readable form, e.g. "[2, 3, 32, 32]"; msg_cat prints a Shape part
/// the same way.
inline std::string shape_str(const Shape& shape) { return msg_cat(shape); }

}  // namespace mtlsplit
