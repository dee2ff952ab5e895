// Split-point search over a Sequential backbone (DESIGN.md §10): the one
// enumerator of cuts and the one cut cost model.
//
// Every candidate boundary is costed with the full deployment model — edge
// FLOPs, *actual* wire bytes through the configured encoding + wire codec
// (measured by pushing a probe activation through quantise/serialise/
// encode), and server FLOPs including the task heads — and the whole
// (edge_s, wire_s, server_s) frontier is kept, not just one winner. Three
// selectors read the frontier, after the heuristic families of the
// paper's §2.1:
//
//  * latency-based (Kang et al., Neurosurgeon [15]): best_serial, the cut
//    with minimal edge + wire + server time, and best_pipelined, the cut
//    with the smallest slowest stage (the steady-state bound of
//    ScDeployment::infer_stream's three-stage pipeline), at any link
//    bandwidth via retime();
//  * architecture-based (Sbai et al. [24]): select_split_min_size, the
//    cut where the transmitted tensor is smallest;
//  * saliency-based (I-Split, Cunico et al. [8]): select_split_saliency,
//    the cut after which the least gradient magnitude flows
//    (layer_saliency), among cuts not much larger than the smallest.
//
// MTL-Split itself fixes the cut at the backbone/heads boundary (Z_b, the
// `handpicked` cut); the frontier quantifies what that choice costs
// relative to any other cut.
#pragma once

#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "sc/deployment.hpp"
#include "sc/device.hpp"

namespace mtlsplit::graph {

/// Deployment parameters a candidate cut is costed against.
struct SplitCostModel {
  sc::DeviceProfile edge;
  sc::DeviceProfile server;
  double bandwidth_bps = 1e9;   ///< link bandwidth (ChannelConfig semantics)
  double base_latency_s = 0.0;  ///< per-message setup/propagation time
  sc::ZbEncoding encoding = sc::ZbEncoding::kFloat32;
  sc::WireCodec codec = sc::WireCodec::kRaw;
  /// FLOPs that always run server-side after the cut tensor arrives (the
  /// task heads); added to every candidate's server cost.
  int64_t server_extra_flops = 0;
};

/// One candidate boundary with its full stage-cost profile.
struct SplitCandidate {
  size_t index = 0;        ///< cut after layer [index-1]; 0 = ship the input
  std::string label;       ///< Sequential::layer_label of the layer before
                           ///< the cut; "input" for cut 0
  Shape cut_shape;         ///< per-sample activation crossing the wire
  int64_t cut_elems = 0;
  int64_t edge_flops = 0;
  int64_t server_flops = 0;      ///< backbone remainder + server_extra_flops
  int64_t wire_bytes_f32 = 0;    ///< raw float32 wire-format size
  /// Bytes that actually cross the link under the cost model's encoding +
  /// codec. Measured from a probe activation when one was supplied to
  /// search_split_point (entropy coding is data-dependent); otherwise the
  /// analytic pre-codec size for the encoding.
  int64_t wire_bytes = 0;

  double edge_s = 0.0;
  double wire_s = 0.0;
  double server_s = 0.0;

  /// End-to-end latency of one inference (infer()'s serial path).
  double serial_s() const { return edge_s + wire_s + server_s; }
  /// Steady-state per-item latency of the three-stage pipeline
  /// (infer_stream): the slowest stage gates throughput.
  double bottleneck_s() const {
    return edge_s > wire_s ? (edge_s > server_s ? edge_s : server_s)
                           : (wire_s > server_s ? wire_s : server_s);
  }
};

struct SplitSearchResult {
  /// Every legal cut 0..backbone.size(), in boundary order.
  std::vector<SplitCandidate> frontier;
  size_t best_serial = 0;     ///< argmin serial_s() (cut 0 excluded)
  size_t best_pipelined = 0;  ///< argmin bottleneck_s() (cut 0 excluded)
  size_t handpicked = 0;      ///< the hard-coded Z_b cut: backbone.size()
};

/// Walks every candidate boundary of @p backbone for per-sample input
/// @p input_nchw ([1,C,H,W]) and costs each against @p cost. When @p probe
/// is non-null it must match input_nchw; the search then forwards it layer
/// by layer and measures each boundary's REAL encoded wire size (quantise →
/// serialise → encode_frame), so entropy-codec savings shape the choice.
/// Cut 0 (remote-only) is reported in the frontier but never selected as a
/// best cut — it is the RoC baseline, not a split.
SplitSearchResult search_split_point(nn::Sequential& backbone,
                                     const Shape& input_nchw,
                                     const SplitCostModel& cost,
                                     const Tensor* probe = nullptr);

/// Re-times an existing frontier under a new cost model (e.g. a different
/// link bandwidth) from its stored FLOP/byte profiles and recomputes the
/// best indices — no model forward, no re-probing. Wire bytes are kept
/// as measured/estimated by the original search.
void retime(SplitSearchResult& result, const SplitCostModel& cost);

/// Architecture-based choice: the cut with the fewest transmitted elements
/// (ties broken toward the earlier cut; cut 0, pure RoC, is excluded).
size_t select_split_min_size(const std::vector<SplitCandidate>& frontier);

/// Mean |gradient| observed at each layer boundary (size() + 1 entries,
/// entry k = gradient entering layer k's input) for input @p x and output
/// gradient @p grad_out. Runs a real forward + per-layer backward.
std::vector<double> layer_saliency(nn::Sequential& backbone, const Tensor& x,
                                   const Tensor& grad_out);

/// I-Split-style choice: among cuts whose transmitted size is within
/// @p size_slack x the minimum, pick the one with the lowest boundary
/// saliency (cutting where little decision-critical signal flows).
size_t select_split_saliency(const std::vector<SplitCandidate>& frontier,
                             const std::vector<double>& saliency,
                             double size_slack = 4.0);

}  // namespace mtlsplit::graph
