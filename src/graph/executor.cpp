#include "graph/executor.hpp"

#include <cstring>
#include <limits>
#include <sstream>

#include "graph/passes.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/squeeze_excite.hpp"
#include "runtime/thread_pool.hpp"

namespace mtlsplit::graph {

namespace {

ConvGeom conv_geom(const Node& n) {
  return {.in_c = n.in_c,
          .in_h = n.in_h,
          .in_w = n.in_w,
          .kernel_h = n.kernel,
          .kernel_w = n.kernel,
          .stride = n.stride,
          .pad = n.pad};
}

/// Where value @p value_id starts in an arena slice holding @p n samples.
float* value_ptr(const Graph& g, float* slice, int value_id, int64_t n) {
  const Value& v = g.values[static_cast<size_t>(value_id)];
  check_arg(v.offset >= 0, "GraphExecutor: value ", v.name,
            " was never planned");
  return slice + v.offset * n;
}

}  // namespace

std::shared_ptr<const CompiledPlan> compile(nn::Sequential& seq,
                                            const Shape& input_shape,
                                            const CompileOptions& options) {
  Graph g = lower(seq, input_shape);
  PassManager pm;
  pm.add(std::make_unique<EliminateDeadLayers>());
  if (!options.exact) pm.add(std::make_unique<FoldBatchNorm>());
  pm.add(std::make_unique<FuseActivation>());
  pm.add(std::make_unique<PlanWorkspace>());
  std::vector<PassReport> reports = pm.run(g);
  return std::make_shared<CompiledPlan>(std::move(g), std::move(reports),
                                        options);
}

// ------------------------------------------------------------ GraphExecutor

GraphExecutor::GraphExecutor(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan)) {
  check_arg(plan_ != nullptr, "GraphExecutor: null plan");
}

Tensor GraphExecutor::run(const Tensor& x) {
  const Graph& g = plan_->graph();
  check_arg(x.dim() == static_cast<int64_t>(g.input_shape.size()),
            "GraphExecutor::run: input rank mismatch");
  for (size_t d = 1; d < g.input_shape.size(); ++d)
    check_arg(x.size(static_cast<int64_t>(d)) == g.input_shape[d],
              "GraphExecutor::run: input dim ", d, " is ",
              x.size(static_cast<int64_t>(d)), ", compiled for ",
              g.input_shape[d]);
  const int64_t nb = x.size(0);
  check_arg(nb >= 1, "GraphExecutor::run: empty batch");

  const auto need = static_cast<size_t>(g.arena_per_sample * nb);
  if (arena_.size() < need) arena_.resize(need);

  // One contiguous sample range per lane, one fork for the whole plan. A
  // caller that already is a pool lane gets one range (its kernels would
  // run inline anyway), and so do batch 1 and a one-lane pool: there the
  // range's kernels still parallelize on the pool.
  const int64_t lanes =
      runtime::ThreadPool::in_worker() ? 1 : runtime::num_threads();
  const int64_t grain = (nb + lanes - 1) / lanes;
  const auto ranges = static_cast<size_t>((nb + grain - 1) / grain);
  if (taps_.size() < ranges) taps_.resize(ranges);

  const int64_t out_elems = g.values[static_cast<size_t>(g.output)].elems;
  std::vector<float> out(static_cast<size_t>(out_elems * nb));
  runtime::parallel_for(0, nb, grain, [&](int64_t lo, int64_t hi) {
    run_range(x.data(), lo, hi - lo, taps_[static_cast<size_t>(lo / grain)],
              out.data());
  });
  return Tensor(plan_->output_shape(nb), std::move(out));
}

void GraphExecutor::run_range(const float* x, int64_t lo, int64_t n,
                              std::vector<int32_t>& taps, float* y) {
  const Graph& g = plan_->graph();
  // The range's slice starts where its first sample's would; inside it,
  // every value sits at offset * n. Slices of disjoint ranges are disjoint.
  float* slice = arena_.data() + lo * g.arena_per_sample;
  const int64_t in_elems = g.values[static_cast<size_t>(g.input)].elems;
  std::memcpy(value_ptr(g, slice, g.input, n), x + lo * in_elems,
              static_cast<size_t>(in_elems * n) * sizeof(float));

  for (size_t i = 0; i < g.nodes.size(); ++i) {
    exec_node(g.nodes[i], slice, n, taps);
    if (poison_dead_) {
      // A value whose last reader was node i is dead from here on: flood
      // its slot so any later read (an aliasing bug in the planner or a
      // kernel) turns the output into NaN instead of silently reusing
      // stale bytes.
      for (size_t v = 0; v < g.values.size(); ++v) {
        const Value& val = g.values[v];
        if (val.offset < 0 || val.last_use != static_cast<int>(i)) continue;
        float* p = slice + val.offset * n;
        std::fill(p, p + val.elems * n,
                  std::numeric_limits<float>::quiet_NaN());
      }
    }
  }

  const int64_t out_elems = g.values[static_cast<size_t>(g.output)].elems;
  std::memcpy(y + lo * out_elems, value_ptr(g, slice, g.output, n),
              static_cast<size_t>(out_elems * n) * sizeof(float));
}

void GraphExecutor::exec_node(const Node& node, float* slice, int64_t nb,
                              std::vector<int32_t>& taps) const {
  const Graph& g = plan_->graph();
  const float* px = value_ptr(g, slice, node.inputs[0], nb);
  float* po = value_ptr(g, slice, node.output, nb);
  const auto cst = [&](int id) {
    return id >= 0 ? g.consts[static_cast<size_t>(id)].data() : nullptr;
  };
  const int64_t planes = nb * node.in_c;
  const int64_t total = g.values[static_cast<size_t>(node.output)].elems * nb;

  switch (node.kind) {
    case OpKind::kConv2d:
      nn::conv2d_forward(px, nb, conv_geom(node), node.out_c, cst(node.weight),
                         cst(node.bias), node.act, po);
      break;
    case OpKind::kDepthwiseConv2d:
      nn::depthwise_conv2d_forward(px, nb, conv_geom(node), cst(node.weight),
                                   cst(node.bias), node.act, taps, po);
      break;
    case OpKind::kBatchNorm2d:
      nn::batchnorm_eval_forward(px, nb, node.in_c, node.in_h * node.in_w,
                                 cst(node.bn_gamma), cst(node.bn_beta),
                                 cst(node.bn_mean), cst(node.bn_var), node.eps,
                                 node.act, po);
      break;
    case OpKind::kActivation:
      nn::activation_forward(node.act, px, total, po);
      break;
    case OpKind::kMaxPool2d:
      nn::max_pool2d_forward(px, planes, node.in_h, node.in_w, node.kernel,
                             node.stride, po, /*argmax=*/nullptr);
      break;
    case OpKind::kAvgPool2d:
      nn::avg_pool2d_forward(px, planes, node.in_h, node.in_w, node.kernel,
                             node.stride, po);
      break;
    case OpKind::kGlobalAvgPool:
      nn::global_avg_pool_forward(px, planes, node.in_h * node.in_w, po);
      break;
    case OpKind::kLinear:
      nn::linear_forward(px, nb, node.in_c, node.out_c, cst(node.weight),
                         cst(node.bias), node.act, po);
      break;
    case OpKind::kChannelScale:
      nn::channel_scale_forward(px, planes, node.in_h * node.in_w,
                                value_ptr(g, slice, node.inputs[1], nb), po);
      break;
    case OpKind::kAdd: {
      // The residual add has no layer of its own (MBConv adds in place).
      const float* pr = value_ptr(g, slice, node.inputs[1], nb);
      runtime::parallel_for(0, total, /*grain=*/1 << 15,
                            [&](int64_t lo, int64_t hi) {
                              for (int64_t i = lo; i < hi; ++i)
                                po[i] = px[i] + pr[i];
                            });
      break;
    }
    case OpKind::kIdentity:
      // Only reachable when the pass pipeline was bypassed; a plain copy.
      std::memcpy(po, px, static_cast<size_t>(total) * sizeof(float));
      break;
  }
}

// ---------------------------------------------------------------- PlanCache

std::shared_ptr<const CompiledPlan> PlanCache::get_or_compile(
    const std::string& key, nn::Sequential& seq, const Shape& input_shape,
    const CompileOptions& options) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  auto plan = compile(seq, input_shape, options);
  plans_.emplace(key, plan);
  return plan;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return plans_.size();
}

// ----------------------------------------------------------------- dump_dot

std::string dump_dot(const CompiledPlan& plan) {
  const Graph& g = plan.graph();
  std::ostringstream out;
  out << "digraph plan {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n"
      << "  input [shape=ellipse, label=\"input "
      << shape_str(g.input_shape) << "\"];\n";
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    const Value& ov = g.values[static_cast<size_t>(n.output)];
    out << "  n" << i << " [label=\"" << n.label << "\\n" << op_kind_name(n.kind);
    if (n.kernel > 0)
      out << " k" << n.kernel << " s" << n.stride << " p" << n.pad;
    if (n.kind == OpKind::kActivation || n.act != ActFn::kNone)
      out << (n.kind == OpKind::kActivation ? " " : " + ")
          << act_fn_name(n.act);
    out << "\\n" << shape_str(ov.shape) << " @" << ov.offset << "\"];\n";
    for (int in : n.inputs) {
      const Value& iv = g.values[static_cast<size_t>(in)];
      if (iv.def >= 0)
        out << "  n" << iv.def << " -> n" << i << ";\n";
      else
        out << "  input -> n" << i << ";\n";
    }
  }
  const Value& outv = g.values[static_cast<size_t>(g.output)];
  out << "  output [shape=ellipse, label=\"output "
      << shape_str(g.output_shape) << "\"];\n";
  if (outv.def >= 0) out << "  n" << outv.def << " -> output;\n";
  else out << "  input -> output;\n";
  out << "}\n";
  return out.str();
}

}  // namespace mtlsplit::graph
