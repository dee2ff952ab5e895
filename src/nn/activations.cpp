#include "nn/activations.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "runtime/thread_pool.hpp"

namespace mtlsplit::nn {

namespace {
// Activation maps are memory-bound; large chunks keep pool overhead small.
constexpr int64_t kActGrain = 1 << 15;

#if defined(__SSE2__)
// Four-lane forms of exp_poly and act(): the same operations in the same
// order, so each lane rounds exactly as the scalar code does. Selects
// replace act()'s branches; max/min keep their NaN operand second, as
// std::max / std::min and the ternaries do.

__m128 exp_poly4(__m128 x) {
  using namespace exp_poly_const;
  x = _mm_min_ps(_mm_set1_ps(kHi), _mm_max_ps(_mm_set1_ps(kLo), x));
  const __m128 shifter = _mm_set1_ps(kShifter);
  const __m128 t = _mm_add_ps(_mm_mul_ps(x, _mm_set1_ps(kLog2e)), shifter);
  const __m128 n = _mm_sub_ps(t, shifter);
  const __m128 r =
      _mm_sub_ps(_mm_sub_ps(x, _mm_mul_ps(n, _mm_set1_ps(kLn2Hi))),
                 _mm_mul_ps(n, _mm_set1_ps(kLn2Lo)));
  __m128 p = _mm_add_ps(_mm_mul_ps(_mm_set1_ps(kP0), r), _mm_set1_ps(kP1));
  p = _mm_add_ps(_mm_mul_ps(p, r), _mm_set1_ps(kP2));
  p = _mm_add_ps(_mm_mul_ps(p, r), _mm_set1_ps(kP3));
  p = _mm_add_ps(_mm_mul_ps(p, r), _mm_set1_ps(kP4));
  p = _mm_add_ps(_mm_mul_ps(p, r), _mm_set1_ps(kP5));
  p = _mm_add_ps(_mm_add_ps(_mm_mul_ps(p, _mm_mul_ps(r, r)), r),
                 _mm_set1_ps(1.0f));
  const __m128i k =
      _mm_sub_epi32(_mm_castps_si128(t), _mm_castps_si128(shifter));
  const __m128i k1 = _mm_srai_epi32(k, 1);
  const __m128i k2 = _mm_sub_epi32(k, k1);
  const __m128i bias = _mm_set1_epi32(127);
  const __m128i s1 = _mm_slli_epi32(_mm_add_epi32(k1, bias), 23);
  const __m128i s2 = _mm_slli_epi32(_mm_add_epi32(k2, bias), 23);
  return _mm_mul_ps(_mm_mul_ps(p, _mm_castsi128_ps(s1)), _mm_castsi128_ps(s2));
}

/// mask ? a : b, lane by lane.
__m128 select4(__m128 mask, __m128 a, __m128 b) {
  return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
}

/// Applies f to every full group of four in [0, n); returns where the
/// scalar tail starts.
template <class F>
int64_t sweep4(const float* x, int64_t n, float* y, F f) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) _mm_storeu_ps(y + i, f(_mm_loadu_ps(x + i)));
  return i;
}

int64_t act_sweep4(ActFn fn, const float* x, int64_t n, float* y) {
  const __m128 zero = _mm_setzero_ps(), one = _mm_set1_ps(1.0f);
  const __m128 three = _mm_set1_ps(3.0f), six = _mm_set1_ps(6.0f);
  const __m128 neg3 = _mm_set1_ps(-3.0f), half = _mm_set1_ps(0.5f);
  const __m128 sign = _mm_set1_ps(-0.0f);
  switch (fn) {
    case ActFn::kNone:
      return 0;
    case ActFn::kReLU:
      return sweep4(x, n, y, [&](__m128 v) { return _mm_max_ps(v, zero); });
    case ActFn::kSigmoid:
      return sweep4(x, n, y, [&](__m128 v) {
        return _mm_div_ps(one, _mm_add_ps(one, exp_poly4(_mm_xor_ps(v, sign))));
      });
    case ActFn::kHardSigmoid:
      return sweep4(x, n, y, [&](__m128 v) {
        const __m128 mid = _mm_add_ps(_mm_div_ps(v, six), half);
        return select4(_mm_cmpge_ps(v, three), one,
                       _mm_andnot_ps(_mm_cmple_ps(v, neg3), mid));
      });
    case ActFn::kHardSwish:
      return sweep4(x, n, y, [&](__m128 v) {
        const __m128 mid = _mm_div_ps(_mm_mul_ps(v, _mm_add_ps(v, three)), six);
        return select4(_mm_cmpge_ps(v, three), v,
                       _mm_andnot_ps(_mm_cmple_ps(v, neg3), mid));
      });
    case ActFn::kSiLU:
      return sweep4(x, n, y, [&](__m128 v) {
        return _mm_div_ps(v, _mm_add_ps(one, exp_poly4(_mm_xor_ps(v, sign))));
      });
  }
  return 0;
}
#endif

}  // namespace

const char* act_fn_name(ActFn fn) {
  switch (fn) {
    case ActFn::kNone: return "none";
    case ActFn::kReLU: return "ReLU";
    case ActFn::kSigmoid: return "Sigmoid";
    case ActFn::kHardSigmoid: return "HardSigmoid";
    case ActFn::kHardSwish: return "HardSwish";
    case ActFn::kSiLU: return "SiLU";
  }
  return "?";
}

void act_sweep(ActFn fn, const float* x, int64_t n, float* y) {
  if (fn == ActFn::kNone) {
    if (y != x) std::copy(x, x + n, y);
    return;
  }
  int64_t i = 0;
#if defined(__SSE2__)
  i = act_sweep4(fn, x, n, y);
#endif
  for (; i < n; ++i) y[i] = act(fn, x[i]);
}

void activation_forward(ActFn fn, const float* x, int64_t n, float* y) {
  runtime::parallel_for(0, n, kActGrain, [&](int64_t lo, int64_t hi) {
    act_sweep(fn, x + lo, hi - lo, y + lo);
  });
}

Tensor Activation::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor out(x.shape());
  activation_forward(fn_, x.data(), x.numel(), out.data());
  return out;
}

Tensor Activation::backward(const Tensor& grad_out) {
  check_arg(grad_out.shape() == cached_input_.shape(),
            name(), "::backward: gradient shape mismatch");
  Tensor out(grad_out.shape());
  const float* pg = grad_out.data();
  const float* px = cached_input_.data();
  float* po = out.data();
  runtime::parallel_for(0, grad_out.numel(), kActGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i)
                            po[i] = pg[i] * df(px[i]);
                        });
  return out;
}

float Sigmoid::df(float x) const {
  const float s = act(ActFn::kSigmoid, x);
  return s * (1.0f - s);
}

float HardSigmoid::df(float x) const {
  return (x > -3.0f && x < 3.0f) ? 1.0f / 6.0f : 0.0f;
}

float HardSwish::df(float x) const {
  if (x <= -3.0f) return 0.0f;
  if (x >= 3.0f) return 1.0f;
  return (2.0f * x + 3.0f) / 6.0f;
}

float SiLU::df(float x) const {
  const float s = act(ActFn::kSigmoid, x);
  return s * (1.0f + x * (1.0f - s));
}

}  // namespace mtlsplit::nn
