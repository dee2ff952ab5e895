// The standard pass set for compiled inference (DESIGN.md §10).
//
// Contracts (verified by tests/test_graph.cpp):
//  * EliminateDeadLayers and FuseActivation are bitwise-exact rewrites: the
//    executed arithmetic is unchanged, only tensor materialisation and node
//    count shrink. They run in every compile mode.
//  * FoldBatchNorm changes the arithmetic (BN's per-element scale/shift is
//    baked into the producing conv's weights), so its results agree with
//    eager execution only to tolerance (~1e-5 relative). It runs only when
//    CompileOptions::exact is off.
//  * PlanWorkspace assigns every live value a per-sample arena offset via
//    liveness analysis; two values may share bytes only when their
//    [def, last_use] intervals do not overlap (boundary-exclusive: a value
//    read by node i never shares with one defined by node i).
#pragma once

#include "graph/pass.hpp"

namespace mtlsplit::graph {

/// Erases kIdentity nodes (Identity, eval-mode Dropout, Flatten) by
/// rewiring their consumers onto the identity's input value.
class EliminateDeadLayers final : public Pass {
 public:
  std::string name() const override { return "eliminate-dead-layers"; }
  int run(Graph& g) override;
};

/// Folds an eval-mode BatchNorm into the conv (regular or depthwise) that
/// feeds it, when the conv's output has no other consumer:
///   s[c]  = gamma[c] / sqrt(var[c] + eps)
///   W'[c] = W[c] * s[c]
///   b'[c] = (b[c] - mean[c]) * s[c] + beta[c]
class FoldBatchNorm final : public Pass {
 public:
  std::string name() const override { return "fold-batchnorm"; }
  int run(Graph& g) override;
};

/// Moves an elementwise activation into the epilogue of the conv, linear
/// or batchnorm node that feeds it (when that output has no other
/// consumer), so the
/// activation runs inside the producer's output loop instead of as a
/// second full-tensor sweep. Numerically exact: the same scalar function is
/// applied to the same values.
class FuseActivation final : public Pass {
 public:
  std::string name() const override { return "fuse-activation"; }
  int run(Graph& g) override;
};

/// Liveness-driven static workspace planning: assigns each value an offset
/// in one shared arena (greedy first-fit over live intervals). Fills
/// Value::offset and Graph::arena_per_sample.
class PlanWorkspace final : public Pass {
 public:
  /// @p align rounds every allocation up to this many floats (keeps rows
  /// SIMD-friendly regardless of neighbours).
  explicit PlanWorkspace(int64_t align = 16) : align_(align) {}
  std::string name() const override { return "plan-workspace"; }
  int run(Graph& g) override;

 private:
  int64_t align_;
};

}  // namespace mtlsplit::graph
