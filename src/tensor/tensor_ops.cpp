#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "tensor/gemm.hpp"

namespace mtlsplit::ops {

namespace {

// Elementwise work below this many indices per chunk is not worth shipping
// to the pool; parallel_for also stays serial when one chunk covers all.
constexpr int64_t kEwGrain = 1 << 15;

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  check_arg(same_shape(a.shape(), b.shape()),
            op, ": shape mismatch ", a.shape(), " vs ", b.shape());
}

template <typename F>
Tensor map2(const Tensor& a, const Tensor& b, const char* op, F f) {
  require_same_shape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::parallel_for(0, a.numel(), kEwGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i)
                            po[i] = f(pa[i], pb[i]);
                        });
  return out;
}

template <typename F>
Tensor map1(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::parallel_for(0, a.numel(), kEwGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
                        });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return map2(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return map2(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return map2(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return map2(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return map1(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return map1(a, [s](float x) { return x * s; });
}

void add_(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  runtime::parallel_for(0, a.numel(), kEwGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
                        });
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  runtime::parallel_for(0, a.numel(), kEwGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) pa[i] *= s;
                        });
}

void axpy_(Tensor& y, float alpha, const Tensor& x) {
  require_same_shape(y, x, "axpy_");
  float* py = y.data();
  const float* px = x.data();
  runtime::parallel_for(0, y.numel(), kEwGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i)
                            py[i] += alpha * px[i];
                        });
}

Tensor neg(const Tensor& a) {
  return map1(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return map1(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return map1(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return map1(a, [](float x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return map1(a, [](float x) { return std::abs(x); });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  check_arg(lo <= hi, "clamp: lo > hi");
  return map1(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

float sum(const Tensor& a) {
  // Pairwise-ish: accumulate in double to keep reductions over large
  // activation maps accurate enough for the finite-difference tests.
  double acc = 0.0;
  for (float v : a.span()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  check_arg(a.numel() > 0, "mean: empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max(const Tensor& a) {
  check_arg(a.numel() > 0, "max: empty tensor");
  float m = -std::numeric_limits<float>::infinity();
  for (float v : a.span()) m = std::max(m, v);
  return m;
}

float min(const Tensor& a) {
  check_arg(a.numel() > 0, "min: empty tensor");
  float m = std::numeric_limits<float>::infinity();
  for (float v : a.span()) m = std::min(m, v);
  return m;
}

float sq_norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.span()) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

std::vector<int64_t> argmax_rows(const Tensor& a) {
  check_arg(a.dim() == 2, "argmax_rows: tensor must be 2-d");
  const int64_t n = a.size(0), c = a.size(1);
  check_arg(c > 0, "argmax_rows: zero columns");
  std::vector<int64_t> out(static_cast<size_t>(n));
  const float* p = a.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = p + i * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

Tensor sum_rows(const Tensor& a) {
  check_arg(a.dim() == 2, "sum_rows: tensor must be 2-d");
  const int64_t n = a.size(0), c = a.size(1);
  Tensor out({c});
  const float* p = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = p + i * c;
    for (int64_t j = 0; j < c; ++j) po[j] += row[j];
  }
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_arg(a.dim() == 2 && b.dim() == 2, "matmul: operands must be 2-d");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  check_arg(b.size(0) == k,
            "matmul: inner dims differ, ", a.shape(), " vs ", b.shape());
  Tensor c({m, n});
  detail::gemm(m, n, k, a.data(), b.data(), c.data());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_arg(a.dim() == 2 && b.dim() == 2, "matmul_tn: operands must be 2-d");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  check_arg(b.size(0) == m,
            "matmul_tn: outer dims differ, ", a.shape(), " vs ", b.shape());
  Tensor c({k, n});
  // C = A^T B: transpose A into the per-thread workspace, then it is a
  // plain GEMM whose reduction still runs over i in index order.
  float* at = runtime::tls_workspace().floats(
      runtime::Workspace::kGemmOperand, m * k);
  detail::transpose(a.data(), m, k, at);
  detail::gemm(k, n, m, at, b.data(), c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_arg(a.dim() == 2 && b.dim() == 2, "matmul_nt: operands must be 2-d");
  const int64_t m = a.size(0), n = a.size(1), k = b.size(0);
  check_arg(b.size(1) == n,
            "matmul_nt: inner dims differ, ", a.shape(), " vs ", b.shape());
  Tensor c({m, k});
  detail::gemm_nt(m, n, k, a.data(), b.data(), c.data());
  return c;
}

Tensor transpose2d(const Tensor& a) {
  check_arg(a.dim() == 2, "transpose2d: tensor must be 2-d");
  const int64_t m = a.size(0), n = a.size(1);
  Tensor out({n, m});
  detail::transpose(a.data(), m, n, out.data());
  return out;
}

Tensor concat_batch(const std::vector<Tensor>& parts) {
  check_arg(!parts.empty(), "concat_batch: no parts");
  const Shape& first = parts[0].shape();
  check_arg(parts[0].dim() >= 1, "concat_batch: parts must have a batch dim");
  int64_t total = 0;
  for (const Tensor& p : parts) {
    check_arg(p.dim() == parts[0].dim(), "concat_batch: rank mismatch");
    for (int64_t d = 1; d < p.dim(); ++d)
      check_arg(p.size(d) == parts[0].size(d),
                "concat_batch: trailing shape mismatch ", p.shape(), " vs ",
                first);
    total += p.size(0);
  }
  Shape out_shape = first;
  out_shape[0] = total;
  Tensor out(out_shape);
  float* po = out.data();
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), po);
    po += p.numel();
  }
  return out;
}

Tensor slice_batch(const Tensor& t, int64_t begin, int64_t end) {
  check_arg(t.dim() >= 1, "slice_batch: tensor must have a batch dim");
  check_arg(begin >= 0 && begin < end && end <= t.size(0),
            "slice_batch: bad range [", begin, ", ", end, ") for ",
            t.shape());
  const int64_t sample = t.numel() / std::max<int64_t>(t.size(0), 1);
  Shape out_shape = t.shape();
  out_shape[0] = end - begin;
  Tensor out(out_shape);
  std::copy(t.data() + begin * sample, t.data() + end * sample, out.data());
  return out;
}

Tensor softmax_rows(const Tensor& a) {
  check_arg(a.dim() == 2, "softmax_rows: tensor must be 2-d");
  const int64_t n = a.size(0), c = a.size(1);
  Tensor out(a.shape());
  const float* p = a.data();
  float* po = out.data();
  const int64_t row_grain = std::max<int64_t>(1, kEwGrain / std::max<int64_t>(c, 1));
  runtime::parallel_for(0, n, row_grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = p + i * c;
      float* orow = po + i * c;
      float m = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < c; ++j) m = std::max(m, row[j]);
      double z = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = std::exp(row[j] - m);
        z += orow[j];
      }
      const float inv = static_cast<float>(1.0 / z);
      for (int64_t j = 0; j < c; ++j) orow[j] *= inv;
    }
  });
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  check_arg(a.dim() == 2, "log_softmax_rows: tensor must be 2-d");
  const int64_t n = a.size(0), c = a.size(1);
  Tensor out(a.shape());
  const float* p = a.data();
  float* po = out.data();
  const int64_t row_grain = std::max<int64_t>(1, kEwGrain / std::max<int64_t>(c, 1));
  runtime::parallel_for(0, n, row_grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = p + i * c;
      float* orow = po + i * c;
      float m = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < c; ++j) m = std::max(m, row[j]);
      double z = 0.0;
      for (int64_t j = 0; j < c; ++j)
        z += std::exp(static_cast<double>(row[j] - m));
      const float logz = m + static_cast<float>(std::log(z));
      for (int64_t j = 0; j < c; ++j) orow[j] = row[j] - logz;
    }
  });
  return out;
}

}  // namespace mtlsplit::ops
