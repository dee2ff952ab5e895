// Shared test helpers: finite-difference gradient checking, and the text
// of a thrown exception.
//
// Every layer's backward() is validated against central finite differences
// of a scalar probe loss L = sum(forward(x) .* W) for a fixed random W:
// the analytic input gradient must equal backward(W), and each parameter's
// accumulated gradient must match the numerical derivative of L wrt that
// parameter entry.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "nn/module.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit::testing {

/// what() of the @p E that @p f throws. Any other exception propagates and
/// fails the test; returning normally fails it too.
template <typename E, typename F>
std::string thrown_what(F&& f) {
  try {
    f();
  } catch (const E& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return "";
}

/// Probe loss L = sum(m.forward(x) .* w).
inline float probe_loss(nn::Module& m, const Tensor& x, const Tensor& w) {
  const Tensor y = m.forward(x);
  return ops::sum(ops::mul(y, w));
}

struct GradCheckOptions {
  float eps = 1e-2f;    ///< central-difference step
  float atol = 2e-2f;   ///< absolute tolerance
  float rtol = 5e-2f;   ///< relative tolerance
  bool check_params = true;
  bool check_input = true;
};

/// Central-difference gradient check of @p m at input @p x.
/// @p rng supplies the probe weights.
inline void expect_gradients_match(nn::Module& m, Tensor x, Rng& rng,
                                   const GradCheckOptions& opt = {}) {
  const Shape out_shape = m.output_shape(x.shape());
  Tensor w(out_shape);
  rng.fill_uniform(w, -1.0f, 1.0f);

  // Analytic gradients.
  m.zero_grad();
  (void)m.forward(x);
  const Tensor dx = m.backward(w);
  ASSERT_EQ(dx.shape(), x.shape());
  std::vector<Tensor> dparams;
  for (nn::Parameter* p : m.parameters()) dparams.push_back(p->grad);

  auto expect_close = [&](float analytic, float numeric, const char* what,
                          int64_t idx) {
    const float tol = opt.atol + opt.rtol * std::abs(numeric);
    EXPECT_NEAR(analytic, numeric, tol)
        << what << " gradient mismatch at flat index " << idx;
  };

  if (opt.check_input) {
    for (int64_t i = 0; i < x.numel(); ++i) {
      const float orig = x[i];
      x[i] = orig + opt.eps;
      const float lp = probe_loss(m, x, w);
      x[i] = orig - opt.eps;
      const float lm = probe_loss(m, x, w);
      x[i] = orig;
      expect_close(dx[i], (lp - lm) / (2.0f * opt.eps), "input", i);
    }
  }

  if (opt.check_params) {
    const auto params = m.parameters();
    for (size_t pi = 0; pi < params.size(); ++pi) {
      Tensor& v = params[pi]->value;
      for (int64_t i = 0; i < v.numel(); ++i) {
        const float orig = v[i];
        v[i] = orig + opt.eps;
        const float lp = probe_loss(m, x, w);
        v[i] = orig - opt.eps;
        const float lm = probe_loss(m, x, w);
        v[i] = orig;
        expect_close(dparams[pi][i], (lp - lm) / (2.0f * opt.eps),
                     params[pi]->name.c_str(), i);
      }
    }
  }
}

/// Uniform random tensor avoiding the kink neighbourhoods of the hard
/// activations (|x| near 0 and near 3), so finite differences stay valid.
inline Tensor smooth_random(const Shape& shape, Rng& rng,
                            float kink_margin = 0.08f) {
  Tensor t(shape);
  for (float& v : t.span()) {
    do {
      v = rng.uniform(-2.5f, 2.5f);
    } while (std::abs(v) < kink_margin || std::abs(std::abs(v) - 3.0f) < kink_margin);
  }
  return t;
}

}  // namespace mtlsplit::testing
