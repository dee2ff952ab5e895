#include "tensor/gemm.hpp"

#include <algorithm>

#include "runtime/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MTLSPLIT_X86 1
#endif

namespace mtlsplit::ops::detail {

namespace {

// Rows of C processed per parallel chunk. A multiple of the 4-row micro-tile;
// fixed (never derived from the thread count) so chunking is reproducible.
constexpr int64_t kRowGrain = 32;

// ------------------------------------------------------------- scalar path

void gemm_block_scalar(int64_t rb, int64_t re, int64_t n, int64_t k,
                       const float* a, const float* b, float* c) {
  // Seed loop order (i-k-j) minus the sparse-skip branch: the branch
  // silently changed flop counts on sparse activations and blocked
  // vectorization of the inner loop.
  for (int64_t i = rb; i < re; ++i) {
    float* crow = c + i * n;
    std::fill(crow, crow + n, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

#ifdef MTLSPLIT_X86

// --------------------------------------------------------------- AVX2 path
//
// 4x16 micro-tile: 8 FMA accumulators, 2 B loads and 4 broadcasts per k
// step. Per element the k-reduction order is 0..K-1, as on the scalar path,
// but each step is one FMA (see gemm.hpp for how the column tail rounds).

__attribute__((target("avx2,fma"))) void micro_4x16(
    int64_t rows, int64_t k, int64_t n, const float* a, int64_t lda,
    const float* b, float* c) {
  __m256 acc[4][2];
  for (int64_t r = 0; r < rows; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int64_t r = 0; r < rows; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + kk]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    _mm256_storeu_ps(c + r * n, acc[r][0]);
    _mm256_storeu_ps(c + r * n + 8, acc[r][1]);
  }
}

__attribute__((target("avx2,fma"))) void micro_4x8(
    int64_t rows, int64_t k, int64_t n, const float* a, int64_t lda,
    const float* b, float* c) {
  __m256 acc[4];
  for (int64_t r = 0; r < rows; ++r) acc[r] = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b + kk * n);
    for (int64_t r = 0; r < rows; ++r)
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * lda + kk]), b0, acc[r]);
  }
  for (int64_t r = 0; r < rows; ++r) _mm256_storeu_ps(c + r * n, acc[r]);
}

__attribute__((target("avx2,fma"))) void gemm_block_avx2(
    int64_t rb, int64_t re, int64_t n, int64_t k, const float* a,
    const float* b, float* c) {
  for (int64_t i = rb; i < re; i += 4) {
    const int64_t rows = std::min<int64_t>(4, re - i);
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16)
      micro_4x16(rows, k, n, arow, k, b + j, crow + j);
    for (; j + 8 <= n; j += 8)
      micro_4x8(rows, k, n, arow, k, b + j, crow + j);
    // Scalar column tail; same per-element reduction order, but gcc rounds
    // the products of each group of four k steps before adding them.
    for (; j < n; ++j)
      for (int64_t r = 0; r < rows; ++r) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk)
          acc += arow[r * k + kk] * b[kk * n + j];
        crow[r * n + j] = acc;
      }
  }
}

#endif  // MTLSPLIT_X86

using BlockFn = void (*)(int64_t, int64_t, int64_t, int64_t, const float*,
                         const float*, float*);

BlockFn pick_block_kernel() {
#ifdef MTLSPLIT_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return gemm_block_avx2;
#endif
  return gemm_block_scalar;
}

}  // namespace

void gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  static const BlockFn kernel = pick_block_kernel();
  runtime::parallel_for(0, m, kRowGrain,
                        [&](int64_t rb, int64_t re) {
                          kernel(rb, re, n, k, a, b, c);
                        });
}

void gemm_nt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c) {
  if (m <= 0 || k <= 0) return;
  runtime::parallel_for(0, m, 16, [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* arow = a + i * n;
      float* crow = c + i * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n;
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j)
          acc += static_cast<double>(arow[j]) * brow[j];
        crow[kk] = static_cast<float>(acc);
      }
    }
  });
}

void transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  constexpr int64_t kTile = 32;
  runtime::parallel_for(0, rows, kTile, [&](int64_t rb, int64_t re) {
    for (int64_t jb = 0; jb < cols; jb += kTile) {
      const int64_t je = std::min(jb + kTile, cols);
      for (int64_t i = rb; i < re; ++i)
        for (int64_t j = jb; j < je; ++j)
          dst[j * rows + i] = src[i * cols + j];
    }
  });
}

}  // namespace mtlsplit::ops::detail
