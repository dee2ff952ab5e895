// Dataflow graph IR for the compiled inference path (DESIGN.md §10).
//
// A Graph is lowered from an eval-mode nn::Sequential: one node per leaf
// layer, with composite layers opened up — MBConv contributes its inner
// path plus an explicit Add node for the residual, SqueezeExcite becomes
// pool -> fc1 -> relu -> fc2 -> gate -> channel-scale. Every intermediate
// tensor is an explicit Value with a recorded def and use list, which is
// what makes liveness analysis (and therefore static workspace planning)
// possible — the eager path hides all of this inside Module::forward call
// frames.
//
// Shapes are stored per sample (batch dim fixed at 1). The executor scales
// every arena offset by the actual batch size at run time, so one compiled
// plan serves any N — and each kernel additionally carries its geometry on
// the Node, so passes may freely rewire values (e.g. drop a Flatten)
// without invalidating downstream kernels.
//
// Weights are snapshotted into the graph as owned consts at lowering time.
// That makes a compiled plan immutable and self-contained: executing it
// never touches the source modules (whose forward() caches mutate), which
// is what lets one plan be shared by every server worker race-free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace mtlsplit::graph {

enum class OpKind {
  kConv2d,
  kDepthwiseConv2d,
  kBatchNorm2d,   ///< eval-mode affine normalisation (running statistics)
  kActivation,
  kMaxPool2d,
  kAvgPool2d,
  kGlobalAvgPool,
  kLinear,
  kAdd,           ///< elementwise residual add
  kChannelScale,  ///< out[n,c,:,:] = in[n,c,:,:] * scale[n,c] (SE excite)
  kIdentity,      ///< Identity / eval Dropout / Flatten — removed by DCE
};

using nn::ActFn;
using nn::act_fn_name;

const char* op_kind_name(OpKind kind);

/// One intermediate tensor. Shapes carry a leading batch dim of 1; `elems`
/// is the per-sample element count. def/last_use and the arena offset are
/// filled in by the liveness/planning pass.
struct Value {
  Shape shape;       ///< per-sample shape, batch dim = 1
  int64_t elems = 0;
  std::string name;
  int def = -1;       ///< producing node; -1 for the graph input
  int last_use = -1;  ///< last node index reading it; nodes.size() = output
  int64_t offset = -1;  ///< per-sample float offset in the arena (planned)
};

/// One operation. Geometry is denormalised onto the node (channels, spatial
/// extents, kernel/stride/pad) so kernels never consult value shapes; const
/// operands are indices into Graph::consts.
struct Node {
  OpKind kind = OpKind::kIdentity;
  std::string label;       ///< e.g. "Conv2d_3" or "MBConv_2/SqueezeExcite_4.fc1"
  std::vector<int> inputs;  ///< value ids, in kernel-operand order
  int output = -1;          ///< value id

  // Conv / pool geometry (per sample).
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t out_c = 0, out_h = 0, out_w = 0;
  int64_t kernel = 0, stride = 1, pad = 0;
  // Linear: feature dims live in in_c/out_c; spatial extents stay 0.

  int weight = -1;  ///< const id (-1 = none)
  int bias = -1;    ///< const id (-1 = none)

  // BatchNorm consts + epsilon.
  int bn_gamma = -1, bn_beta = -1, bn_mean = -1, bn_var = -1;
  float eps = 0.0f;

  /// kActivation: which function. Conv/linear: fused epilogue (kNone until
  /// the fusion pass runs).
  ActFn act = ActFn::kNone;
};

struct Graph {
  std::vector<Node> nodes;  ///< topological order == execution order
  std::vector<Value> values;
  std::vector<Tensor> consts;  ///< owned weight snapshots
  int input = -1;   ///< value id
  int output = -1;  ///< value id
  Shape input_shape;   ///< per-sample, batch dim = 1
  Shape output_shape;  ///< per-sample, batch dim = 1

  /// Floats for every live value, per sample (filled in by the
  /// workspace-planning pass; the executor multiplies by the batch size).
  int64_t arena_per_sample = 0;

  int new_value(Shape shape, std::string name);
  int new_const(Tensor t);

  /// Number of nodes reading each value (graph output counts as one use).
  std::vector<int> use_counts() const;
  /// Recomputes every value's def and last_use from the node list.
  void recompute_liveness();
};

/// Lowers an eval-mode Sequential into a Graph. @p input_shape is one
/// sample with its batch dim, i.e. {1, C, H, W} for a conv stack or {1, D}
/// for an MLP head. Throws on training-mode models (BatchNorm would bake
/// the wrong statistics) and on layer types the IR does not model.
Graph lower(nn::Sequential& seq, const Shape& input_shape);

}  // namespace mtlsplit::graph
