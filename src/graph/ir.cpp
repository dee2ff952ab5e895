#include "graph/ir.hpp"

#include <algorithm>

#include "models/blocks.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pooling.hpp"
#include "nn/squeeze_excite.hpp"

namespace mtlsplit::graph {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2d: return "Conv2d";
    case OpKind::kDepthwiseConv2d: return "DepthwiseConv2d";
    case OpKind::kBatchNorm2d: return "BatchNorm2d";
    case OpKind::kActivation: return "Activation";
    case OpKind::kMaxPool2d: return "MaxPool2d";
    case OpKind::kAvgPool2d: return "AvgPool2d";
    case OpKind::kGlobalAvgPool: return "GlobalAvgPool";
    case OpKind::kLinear: return "Linear";
    case OpKind::kAdd: return "Add";
    case OpKind::kChannelScale: return "ChannelScale";
    case OpKind::kIdentity: return "Identity";
  }
  return "?";
}

int Graph::new_value(Shape shape, std::string name) {
  Value v;
  v.elems = numel(shape);
  v.shape = std::move(shape);
  v.name = std::move(name);
  values.push_back(std::move(v));
  return static_cast<int>(values.size()) - 1;
}

int Graph::new_const(Tensor t) {
  consts.push_back(std::move(t));
  return static_cast<int>(consts.size()) - 1;
}

std::vector<int> Graph::use_counts() const {
  std::vector<int> uses(values.size(), 0);
  for (const Node& n : nodes)
    for (int v : n.inputs) uses[static_cast<size_t>(v)]++;
  if (output >= 0) uses[static_cast<size_t>(output)]++;
  return uses;
}

void Graph::recompute_liveness() {
  for (Value& v : values) {
    v.def = -1;
    v.last_use = -1;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int idx = static_cast<int>(i);
    for (int in : nodes[i].inputs)
      values[static_cast<size_t>(in)].last_use =
          std::max(values[static_cast<size_t>(in)].last_use, idx);
    values[static_cast<size_t>(nodes[i].output)].def = idx;
  }
  // The graph output (and the input, until its real last read) must outlive
  // every node.
  if (output >= 0)
    values[static_cast<size_t>(output)].last_use =
        static_cast<int>(nodes.size());
}

namespace {

/// Lowering cursor: the value currently flowing out of the last lowered
/// layer, plus its per-sample shape.
struct Cursor {
  int value = -1;
  Shape shape;
};

int push_node(Graph& g, Node n, const Shape& out_shape,
              const std::string& label) {
  n.label = label;
  n.output = g.new_value(out_shape, label + ".out");
  g.nodes.push_back(std::move(n));
  return g.nodes.back().output;
}

void lower_module(Graph& g, nn::Module& m, const std::string& label,
                  Cursor& cur);

void lower_sequential(Graph& g, nn::Sequential& seq, const std::string& prefix,
                      Cursor& cur) {
  for (size_t i = 0; i < seq.size(); ++i)
    lower_module(g, seq.layer(i), prefix + seq.layer_label(i), cur);
}

void lower_squeeze_excite(Graph& g, nn::SqueezeExcite& se,
                          const std::string& label, Cursor& cur) {
  const int x = cur.value;
  const Shape x_shape = cur.shape;
  const int64_t c = se.channels();

  Node pool;
  pool.kind = OpKind::kGlobalAvgPool;
  pool.inputs = {x};
  pool.in_c = c;
  pool.in_h = x_shape[2];
  pool.in_w = x_shape[3];
  int v = push_node(g, std::move(pool), {1, c}, label + ".pool");

  auto linear = [&](nn::Linear& fc, int in_v, const std::string& sub) {
    Node n;
    n.kind = OpKind::kLinear;
    n.inputs = {in_v};
    n.in_c = fc.in_features();
    n.out_c = fc.out_features();
    n.weight = g.new_const(fc.weight().value);
    if (fc.has_bias()) n.bias = g.new_const(fc.bias().value);
    return push_node(g, std::move(n), {1, fc.out_features()}, label + sub);
  };
  v = linear(se.fc1(), v, ".fc1");

  Node relu;
  relu.kind = OpKind::kActivation;
  relu.act = ActFn::kReLU;
  relu.inputs = {v};
  v = push_node(g, std::move(relu), {1, se.fc1().out_features()},
                label + ".relu");

  v = linear(se.fc2(), v, ".fc2");

  Node gate;
  gate.kind = OpKind::kActivation;
  gate.act = ActFn::kHardSigmoid;
  gate.inputs = {v};
  v = push_node(g, std::move(gate), {1, c}, label + ".gate");

  Node scale;
  scale.kind = OpKind::kChannelScale;
  scale.inputs = {x, v};
  scale.in_c = c;
  scale.in_h = x_shape[2];
  scale.in_w = x_shape[3];
  cur.value = push_node(g, std::move(scale), x_shape, label + ".scale");
  cur.shape = x_shape;
}

void lower_module(Graph& g, nn::Module& m, const std::string& label,
                  Cursor& cur) {
  const Shape out_shape = m.output_shape(cur.shape);

  if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
    Node n;
    n.kind = OpKind::kConv2d;
    n.inputs = {cur.value};
    n.in_c = conv->in_channels();
    n.in_h = cur.shape[2];
    n.in_w = cur.shape[3];
    n.out_c = conv->out_channels();
    n.out_h = out_shape[2];
    n.out_w = out_shape[3];
    n.kernel = conv->kernel();
    n.stride = conv->stride();
    n.pad = conv->pad();
    n.weight = g.new_const(conv->weight().value);
    if (conv->has_bias()) n.bias = g.new_const(conv->bias().value);
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(&m)) {
    Node n;
    n.kind = OpKind::kDepthwiseConv2d;
    n.inputs = {cur.value};
    n.in_c = dw->channels();
    n.in_h = cur.shape[2];
    n.in_w = cur.shape[3];
    n.out_c = dw->channels();
    n.out_h = out_shape[2];
    n.out_w = out_shape[3];
    n.kernel = dw->kernel();
    n.stride = dw->stride();
    n.pad = dw->pad();
    n.weight = g.new_const(dw->weight().value);
    if (dw->has_bias()) n.bias = g.new_const(dw->bias().value);
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
    Node n;
    n.kind = OpKind::kBatchNorm2d;
    n.inputs = {cur.value};
    n.in_c = bn->channels();
    n.in_h = cur.shape[2];
    n.in_w = cur.shape[3];
    n.eps = bn->eps();
    n.bn_gamma = g.new_const(bn->gamma().value);
    n.bn_beta = g.new_const(bn->beta().value);
    n.bn_mean = g.new_const(bn->running_mean());
    n.bn_var = g.new_const(bn->running_var());
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* lin = dynamic_cast<nn::Linear*>(&m)) {
    Node n;
    n.kind = OpKind::kLinear;
    n.inputs = {cur.value};
    n.in_c = lin->in_features();
    n.out_c = lin->out_features();
    n.weight = g.new_const(lin->weight().value);
    if (lin->has_bias()) n.bias = g.new_const(lin->bias().value);
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&m)) {
    Node n;
    n.kind = OpKind::kMaxPool2d;
    n.inputs = {cur.value};
    n.in_c = cur.shape[1];
    n.in_h = cur.shape[2];
    n.in_w = cur.shape[3];
    n.out_h = out_shape[2];
    n.out_w = out_shape[3];
    n.kernel = mp->kernel();
    n.stride = mp->stride();
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* ap = dynamic_cast<nn::AvgPool2d*>(&m)) {
    Node n;
    n.kind = OpKind::kAvgPool2d;
    n.inputs = {cur.value};
    n.in_c = cur.shape[1];
    n.in_h = cur.shape[2];
    n.in_w = cur.shape[3];
    n.out_h = out_shape[2];
    n.out_w = out_shape[3];
    n.kernel = ap->kernel();
    n.stride = ap->stride();
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
    Node n;
    n.kind = OpKind::kGlobalAvgPool;
    n.inputs = {cur.value};
    n.in_c = cur.shape[1];
    n.in_h = cur.shape[2];
    n.in_w = cur.shape[3];
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* a = dynamic_cast<nn::Activation*>(&m)) {
    Node n;
    n.kind = OpKind::kActivation;
    n.act = a->fn();
    n.inputs = {cur.value};
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (dynamic_cast<nn::Flatten*>(&m) != nullptr ||
             dynamic_cast<nn::Dropout*>(&m) != nullptr ||
             dynamic_cast<nn::Identity*>(&m) != nullptr) {
    // Row-major [1, C, H, W] flattens to [1, C*H*W] without moving a byte,
    // and eval-mode Dropout is the identity — these are pure relabelings,
    // kept as kIdentity nodes for the DCE pass to erase.
    Node n;
    n.kind = OpKind::kIdentity;
    n.inputs = {cur.value};
    cur.value = push_node(g, std::move(n), out_shape, label);
  } else if (auto* mb = dynamic_cast<models::MBConv*>(&m)) {
    const int block_in = cur.value;
    lower_sequential(g, mb->path(), label + "/", cur);
    if (mb->has_residual()) {
      Node n;
      n.kind = OpKind::kAdd;
      n.inputs = {cur.value, block_in};
      cur.value = push_node(g, std::move(n), out_shape, label + ".residual");
    }
  } else if (auto* se = dynamic_cast<nn::SqueezeExcite*>(&m)) {
    lower_squeeze_excite(g, *se, label, cur);
  } else if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
    lower_sequential(g, *seq, label + "/", cur);
  } else {
    check_arg(false, "graph::lower: unsupported layer ", m.name());
  }
  cur.shape = out_shape;
}

}  // namespace

Graph lower(nn::Sequential& seq, const Shape& input_shape) {
  check_arg(!input_shape.empty() && input_shape[0] == 1,
            "graph::lower: input shape must be one sample, batch dim 1");
  check_arg(!seq.training(),
            "graph::lower: model must be in eval mode (set_training(false)) "
            "so BatchNorm statistics and Dropout behaviour are frozen");
  Graph g;
  g.input_shape = input_shape;
  g.input = g.new_value(input_shape, "input");

  Cursor cur{g.input, input_shape};
  lower_sequential(g, seq, "", cur);

  g.output = cur.value;
  g.output_shape = cur.shape;
  g.recompute_liveness();
  return g;
}

}  // namespace mtlsplit::graph
