// Kernel library over Tensor: elementwise ops, GEMM, reductions, softmax.
//
// All binary tensor-tensor ops require identical shapes (there is no
// broadcasting).
//
// Threading (DESIGN.md §7): the GEMMs, elementwise maps and row-wise
// softmaxes run on the runtime thread pool via parallel_for; results are
// bit-identical for any MTLSPLIT_NUM_THREADS because writes are disjoint
// and every per-element reduction keeps a fixed index order. Scalar
// reductions (sum/mean/max/min/sq_norm) stay serial on purpose — their
// accumulation order is part of the numeric contract.
#pragma once

#include "tensor/tensor.hpp"

namespace mtlsplit::ops {

// ---------------------------------------------------------------- elementwise
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// a += b (in place).
void add_(Tensor& a, const Tensor& b);
/// a *= s (in place).
void scale_(Tensor& a, float s);
/// y += alpha * x (in place).
void axpy_(Tensor& y, float alpha, const Tensor& x);

Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);

// ---------------------------------------------------------------- reductions
float sum(const Tensor& a);
float mean(const Tensor& a);
float max(const Tensor& a);
float min(const Tensor& a);
/// Sum of squared elements.
float sq_norm(const Tensor& a);

/// For a [N, C] tensor, the argmax of each row -> vector of N indices.
std::vector<int64_t> argmax_rows(const Tensor& a);

/// For a [N, C] tensor, sums over rows -> [C].
Tensor sum_rows(const Tensor& a);

// ------------------------------------------------------------ linear algebra
/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[K,N] = A[M,K]^T * B[M,N]  (transpose-first GEMM, used by backward).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[M,K] = A[M,N] * B[K,N]^T  (transpose-second GEMM, used by backward).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Transpose of a 2-d tensor.
Tensor transpose2d(const Tensor& a);

// ------------------------------------------------------------- batch assembly
/// Concatenates tensors along dim 0; every part must share the trailing
/// dims. Used by the serving layer to coalesce per-request samples into
/// one server batch.
Tensor concat_batch(const std::vector<Tensor>& parts);

/// Samples [begin, end) of dim 0 as a new tensor (rows are contiguous, so
/// this is one memcpy). The inverse of concat_batch for scatter-back.
Tensor slice_batch(const Tensor& t, int64_t begin, int64_t end);

// -------------------------------------------------------------------- softmax
/// Row-wise numerically stable softmax of a [N, C] tensor.
Tensor softmax_rows(const Tensor& a);
/// Row-wise log-softmax of a [N, C] tensor.
Tensor log_softmax_rows(const Tensor& a);

}  // namespace mtlsplit::ops
