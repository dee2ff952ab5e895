// Compiled executor for the graph IR (DESIGN.md §10).
//
// compile() lowers a Sequential, runs the pass pipeline and freezes the
// result into an immutable CompiledPlan. A GraphExecutor then runs the
// plan over batches: every intermediate lives in ONE arena at the offset
// the workspace planner assigned (scaled by the samples that share its
// slice), so a forward pass performs no tensor allocation, no zero-fill
// and no backward-cache copies — the three hidden costs of the eager
// Module::forward path.
//
// Sharing model:
//  * CompiledPlan is immutable after construction (it owns snapshot copies
//    of all weights) — one plan may be shared by any number of executors
//    on any number of threads. This is what lets every ScServer worker
//    replica reuse the plan replica 0 compiled.
//  * GraphExecutor owns the mutable arena and is single-threaded: one
//    executor per concurrent caller (the deployment keeps one per pipeline
//    stage). run() forks once per batch: it splits the batch into one
//    contiguous sample range per pool lane, and each range runs every node
//    over its own samples, in its own slice of the arena, with its own
//    depthwise scratch and its kernels inline. At batch 1 or on a
//    one-lane pool there is one range and its kernels parallelize on the
//    pool; a caller that already is a pool lane gets one range too. Each
//    node runs the same forward kernel as its eager layer
//    (nn::conv2d_forward, nn::linear_forward, ...) and no kernel reduces
//    across samples, so compiled results are bitwise identical to eager
//    for any MTLSPLIT_NUM_THREADS and any range split (exact mode).
//  * PlanCache is a thread-safe keyed store so replicas compile once.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/pass.hpp"

namespace mtlsplit::graph {

struct CompileOptions {
  /// true — every rewrite is bitwise-exact w.r.t. eager forward() (dead
  /// layers, activation epilogues, workspace planning). false — also fold
  /// BatchNorm into convs; outputs then agree with eager to ~1e-5.
  bool exact = true;
};

class CompiledPlan {
 public:
  CompiledPlan(Graph graph, std::vector<PassReport> reports,
               CompileOptions options)
      : graph_(std::move(graph)),
        reports_(std::move(reports)),
        options_(options) {}

  const Graph& graph() const { return graph_; }
  const std::vector<PassReport>& pass_reports() const { return reports_; }
  const CompileOptions& options() const { return options_; }

  /// Output shape for a batch of @p n samples.
  Shape output_shape(int64_t n) const {
    Shape s = graph_.output_shape;
    s[0] = n;
    return s;
  }

 private:
  Graph graph_;
  std::vector<PassReport> reports_;
  CompileOptions options_;
};

/// Lowers @p seq (eval mode) for per-sample @p input_shape ({1,C,H,W} or
/// {1,D}) and runs the pass pipeline: eliminate-dead-layers,
/// fold-batchnorm (non-exact mode only), fuse-activation, plan-workspace.
std::shared_ptr<const CompiledPlan> compile(nn::Sequential& seq,
                                            const Shape& input_shape,
                                            const CompileOptions& options = {});

class GraphExecutor {
 public:
  explicit GraphExecutor(std::shared_ptr<const CompiledPlan> plan);

  /// Runs the plan on a [N, ...] batch; per-sample trailing dims must match
  /// the compiled input shape. Grows (never shrinks) the arena. Not
  /// reentrant: the sample ranges of one call share this executor.
  Tensor run(const Tensor& x);

  /// Debug mode for the aliasing tests: NaN-fills every arena slot the
  /// moment its value's liveness ends. A correct plan produces bitwise
  /// identical outputs with this on — any read of dead bytes propagates
  /// NaN into the result instead of silently reusing stale data.
  void set_poison_dead(bool on) { poison_dead_ = on; }

  const CompiledPlan& plan() const { return *plan_; }

 private:
  /// Runs every node over samples [lo, lo + n) of @p x into the same rows
  /// of @p y, in the arena slice that starts at lo * arena_per_sample.
  void run_range(const float* x, int64_t lo, int64_t n,
                 std::vector<int32_t>& taps, float* y);
  void exec_node(const Node& node, float* slice, int64_t nb,
                 std::vector<int32_t>& taps) const;

  std::shared_ptr<const CompiledPlan> plan_;
  std::vector<float> arena_;  ///< every planned value, one slice per range
  std::vector<std::vector<int32_t>> taps_;  ///< depthwise taps, per range
  bool poison_dead_ = false;
};

/// Thread-safe plan store keyed by caller-chosen strings. Intended for one
/// model family at a time (e.g. an ScServer's replica set, which shares
/// weights bitwise): the key encodes role/shape/generation, not weights.
class PlanCache {
 public:
  /// Returns the cached plan for @p key, compiling (under the lock) on the
  /// first request.
  std::shared_ptr<const CompiledPlan> get_or_compile(
      const std::string& key, nn::Sequential& seq, const Shape& input_shape,
      const CompileOptions& options = {});

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CompiledPlan>> plans_;
};

/// Graphviz rendering of a compiled plan (nodes with fused epilogues and
/// arena offsets, edges labelled with per-sample shapes).
std::string dump_dot(const CompiledPlan& plan);

}  // namespace mtlsplit::graph
