// Raw-pointer GEMM kernels shared by ops::matmul* and the conv layers.
//
// One cache-blocked, tiled kernel (4x16 micro-tile, AVX2/FMA when the CPU
// has it, scalar otherwise — picked once at runtime) parallelized over row
// blocks of C on the global thread pool. Per output element the reduction
// over k runs strictly in index order 0..K-1, so results are bit-identical
// for any thread count (DESIGN.md §7). The rounding is not the same for
// every element: on the AVX2 path the full-vector columns compute one FMA
// chain (under gcc the 4x16 tile's accumulators live in a stack array,
// written back on every k step), while the scalar column tail, the last
// n mod 8 columns, rounds each product before adding it for k in groups
// of four and fuses only the k mod 4 rest. Results are deterministic per
// build and shape, which is what the bitwise-serving contract needs.
//
// All matrices are dense row-major with packed leading dimensions.
#pragma once

#include <cstdint>

namespace mtlsplit::ops::detail {

/// C[M,N] = A[M,K] * B[K,N]. C is overwritten (no accumulate).
void gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c);

/// C[M,K] = A[M,N] * B[K,N]^T — every C element is a dot product of two
/// contiguous rows, accumulated in double (matches the seed backward-GEMM
/// numerics). C is overwritten.
void gemm_nt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c);

/// dst[cols, rows] = src[rows, cols]^T (blocked transpose).
void transpose(const float* src, int64_t rows, int64_t cols, float* dst);

}  // namespace mtlsplit::ops::detail
