#include "graph/passes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace mtlsplit::graph {

std::vector<PassReport> PassManager::run(Graph& g) {
  std::vector<PassReport> reports;
  reports.reserve(passes_.size());
  for (const auto& pass : passes_) {
    PassReport r;
    r.name = pass->name();
    const auto t0 = std::chrono::steady_clock::now();
    r.rewrites = pass->run(g);
    r.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    reports.push_back(std::move(r));
  }
  return reports;
}

namespace {

/// Redirects every read of value @p from (including the graph output) to
/// value @p to.
void rewire_uses(Graph& g, int from, int to) {
  for (Node& n : g.nodes)
    for (int& v : n.inputs)
      if (v == from) v = to;
  if (g.output == from) g.output = to;
}

/// Drops the nodes whose flag is set, keeping order.
void erase_marked(Graph& g, const std::vector<bool>& dead) {
  std::vector<Node> kept;
  kept.reserve(g.nodes.size());
  for (size_t i = 0; i < g.nodes.size(); ++i)
    if (!dead[i]) kept.push_back(std::move(g.nodes[i]));
  g.nodes = std::move(kept);
  g.recompute_liveness();
}

}  // namespace

int EliminateDeadLayers::run(Graph& g) {
  int rewrites = 0;
  std::vector<bool> dead(g.nodes.size(), false);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    Node& n = g.nodes[i];
    if (n.kind != OpKind::kIdentity) continue;
    rewire_uses(g, n.output, n.inputs[0]);
    dead[i] = true;
    rewrites++;
  }
  if (rewrites > 0) erase_marked(g, dead);
  return rewrites;
}

int FoldBatchNorm::run(Graph& g) {
  int rewrites = 0;
  g.recompute_liveness();
  std::vector<int> uses = g.use_counts();
  std::vector<bool> dead(g.nodes.size(), false);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    Node& bn = g.nodes[i];
    if (bn.kind != OpKind::kBatchNorm2d) continue;
    const int in_v = bn.inputs[0];
    const int d = g.values[static_cast<size_t>(in_v)].def;
    if (d < 0 || dead[static_cast<size_t>(d)]) continue;
    Node& conv = g.nodes[static_cast<size_t>(d)];
    if (conv.kind != OpKind::kConv2d &&
        conv.kind != OpKind::kDepthwiseConv2d)
      continue;
    // Another consumer still wants the pre-BN activation, or either node
    // already carries a fused epilogue that must see unfolded values.
    if (uses[static_cast<size_t>(in_v)] != 1 || conv.act != ActFn::kNone ||
        bn.act != ActFn::kNone)
      continue;

    const Tensor& gamma = g.consts[static_cast<size_t>(bn.bn_gamma)];
    const Tensor& beta = g.consts[static_cast<size_t>(bn.bn_beta)];
    const Tensor& mean = g.consts[static_cast<size_t>(bn.bn_mean)];
    const Tensor& var = g.consts[static_cast<size_t>(bn.bn_var)];
    Tensor& w = g.consts[static_cast<size_t>(conv.weight)];
    const int64_t oc = conv.out_c;
    const int64_t row = w.numel() / oc;  // in_c*k*k, or k*k for depthwise

    Tensor new_bias({oc});
    const bool had_bias = conv.bias >= 0;
    for (int64_t c = 0; c < oc; ++c) {
      const float inv_std = 1.0f / std::sqrt(var[c] + bn.eps);
      const float s = gamma[c] * inv_std;
      float* wr = w.data() + c * row;
      for (int64_t j = 0; j < row; ++j) wr[j] *= s;
      const float b0 = had_bias ? g.consts[static_cast<size_t>(conv.bias)][c]
                                : 0.0f;
      new_bias[c] = (b0 - mean[c]) * s + beta[c];
    }
    conv.bias = g.new_const(std::move(new_bias));

    rewire_uses(g, bn.output, conv.output);
    dead[i] = true;
    uses[static_cast<size_t>(in_v)] = 0;
    rewrites++;
  }
  if (rewrites > 0) erase_marked(g, dead);
  return rewrites;
}

int FuseActivation::run(Graph& g) {
  int rewrites = 0;
  g.recompute_liveness();
  std::vector<int> uses = g.use_counts();
  std::vector<bool> dead(g.nodes.size(), false);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    Node& act = g.nodes[i];
    if (act.kind != OpKind::kActivation) continue;
    const int in_v = act.inputs[0];
    const int d = g.values[static_cast<size_t>(in_v)].def;
    if (d < 0 || dead[static_cast<size_t>(d)]) continue;
    Node& prod = g.nodes[static_cast<size_t>(d)];
    if (prod.kind != OpKind::kConv2d &&
        prod.kind != OpKind::kDepthwiseConv2d &&
        prod.kind != OpKind::kLinear && prod.kind != OpKind::kBatchNorm2d)
      continue;
    if (uses[static_cast<size_t>(in_v)] != 1 || prod.act != ActFn::kNone)
      continue;

    prod.act = act.act;
    rewire_uses(g, act.output, prod.output);
    dead[i] = true;
    uses[static_cast<size_t>(in_v)] = 0;
    rewrites++;
  }
  if (rewrites > 0) erase_marked(g, dead);
  return rewrites;
}

int PlanWorkspace::run(Graph& g) {
  g.recompute_liveness();
  const auto aligned = [this](int64_t n) {
    return (n + align_ - 1) / align_ * align_;
  };

  // Values in def order (the input defs at "-1", before node 0). A value
  // with no def and no use is dead (e.g. the pre-rewire output of an erased
  // node) and gets no slot.
  std::vector<int> order;
  for (size_t v = 0; v < g.values.size(); ++v) {
    const Value& val = g.values[v];
    const bool is_input = static_cast<int>(v) == g.input;
    if (!is_input && val.def < 0) continue;  // dead value
    if (val.last_use < 0) continue;          // defined but never read
    order.push_back(static_cast<int>(v));
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return g.values[static_cast<size_t>(a)].def <
           g.values[static_cast<size_t>(b)].def;
  });

  struct Alloc {
    int64_t offset, size;
    int last_use;
  };
  std::vector<Alloc> active;  // kept sorted by offset
  int rewrites = 0;
  int64_t arena = 0;
  for (int vid : order) {
    Value& v = g.values[static_cast<size_t>(vid)];
    const int64_t size = aligned(v.elems);
    // Expire allocations whose last read happened strictly before this
    // value's def — a value read by node i never shares with one defined
    // by node i (boundary-exclusive, so no kernel ever writes its output
    // over bytes it is still reading).
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Alloc& a) {
                                  return a.last_use < v.def;
                                }),
                 active.end());
    // First fit into the lowest gap between active allocations.
    int64_t offset = 0;
    for (const Alloc& a : active) {
      if (offset + size <= a.offset) break;
      offset = std::max(offset, a.offset + a.size);
    }
    if (v.offset != offset) rewrites++;
    v.offset = offset;
    arena = std::max(arena, offset + size);
    active.push_back({offset, size, v.last_use});
    std::sort(active.begin(), active.end(),
              [](const Alloc& a, const Alloc& b) { return a.offset < b.offset; });
  }
  g.arena_per_sample = arena;
  return rewrites;
}

}  // namespace mtlsplit::graph
