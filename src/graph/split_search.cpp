#include "graph/split_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sc/quantize.hpp"
#include "sc/wire_codec.hpp"
#include "tensor/serialize.hpp"

namespace mtlsplit::graph {

namespace {

/// Wire bytes the cost model's encoding + codec would put on the link for
/// activation @p h (the real pipeline: quantise → serialise → frame).
int64_t measure_wire_bytes(const Tensor& h, const SplitCostModel& cost) {
  std::vector<uint8_t> msg;
  if (cost.encoding == sc::ZbEncoding::kFloat32) {
    msg = serialize_tensor(h);
  } else {
    const sc::QuantizedTensor q = sc::quantize_int8(h);
    msg = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
  }
  if (cost.codec != sc::WireCodec::kRaw)
    msg = sc::encode_frame(msg, cost.codec);
  return static_cast<int64_t>(msg.size());
}

void time_candidate(SplitCandidate& c, const SplitCostModel& cost) {
  c.edge_s = cost.edge.compute_time(c.edge_flops);
  c.wire_s = cost.base_latency_s +
             static_cast<double>(c.wire_bytes) * 8.0 / cost.bandwidth_bps;
  c.server_s = cost.server.compute_time(c.server_flops);
}

void pick_best(SplitSearchResult& r) {
  double best_serial = std::numeric_limits<double>::infinity();
  double best_pipe = std::numeric_limits<double>::infinity();
  // Cut 0 is the RoC baseline (nothing runs on the edge) — it stays in the
  // frontier for comparison but is never *selected* as a split.
  for (size_t k = 1; k < r.frontier.size(); ++k) {
    const SplitCandidate& c = r.frontier[k];
    if (c.serial_s() < best_serial) {
      best_serial = c.serial_s();
      r.best_serial = k;
    }
    if (c.bottleneck_s() < best_pipe) {
      best_pipe = c.bottleneck_s();
      r.best_pipelined = k;
    }
  }
}

}  // namespace

SplitSearchResult search_split_point(nn::Sequential& backbone,
                                     const Shape& input_nchw,
                                     const SplitCostModel& cost,
                                     const Tensor* probe) {
  check_arg(input_nchw.size() == 4 && input_nchw[0] == 1,
            "search_split_point: input must be [1,C,H,W]");
  check_arg(cost.bandwidth_bps > 0.0,
            "search_split_point: bandwidth must be positive");
  check_arg(cost.server_extra_flops >= 0,
            "search_split_point: negative head flops");
  if (probe != nullptr)
    check_arg(probe->shape() == input_nchw,
              "search_split_point: probe shape must match input_nchw");

  const size_t n = backbone.size();
  const int64_t total_flops = backbone.flops(input_nchw);

  SplitSearchResult r;
  r.frontier.reserve(n + 1);
  r.handpicked = n;

  // One incremental forward instead of n prefix re-runs: h holds the
  // activation at boundary k when candidate k is costed.
  Tensor h = probe != nullptr ? *probe : Tensor();
  for (size_t k = 0; k <= n; ++k) {
    if (probe != nullptr && k > 0) h = backbone.layer(k - 1).forward(h);

    SplitCandidate c;
    c.index = k;
    c.label = k == 0 ? "input" : backbone.layer_label(k - 1);
    c.cut_shape = backbone.output_shape_prefix(input_nchw, k);
    c.cut_elems = numel(c.cut_shape);
    c.edge_flops = backbone.flops_prefix(input_nchw, k);
    c.server_flops = total_flops - c.edge_flops + cost.server_extra_flops;
    c.wire_bytes_f32 = wire_size_f32(c.cut_shape);
    if (probe != nullptr) {
      c.wire_bytes = measure_wire_bytes(h, cost);
    } else {
      // Analytic fallback: the pre-codec serialised size for the encoding
      // (entropy-codec savings are data-dependent and need a probe).
      c.wire_bytes = cost.encoding == sc::ZbEncoding::kFloat32
                         ? c.wire_bytes_f32
                         : wire_size_i8(c.cut_shape);
    }
    time_candidate(c, cost);
    r.frontier.push_back(std::move(c));
  }

  pick_best(r);
  return r;
}

void retime(SplitSearchResult& result, const SplitCostModel& cost) {
  check_arg(!result.frontier.empty(), "retime: empty frontier");
  check_arg(cost.bandwidth_bps > 0.0, "retime: bandwidth must be positive");
  for (SplitCandidate& c : result.frontier) {
    // server_extra_flops was baked into server_flops at search time and is
    // kept; only the device/link timings are recomputed.
    time_candidate(c, cost);
  }
  pick_best(result);
}

size_t select_split_min_size(const std::vector<SplitCandidate>& frontier) {
  check_arg(frontier.size() > 1, "select_split_min_size: need cuts beyond 0");
  size_t best = 1;
  for (size_t k = 2; k < frontier.size(); ++k)
    if (frontier[k].cut_elems < frontier[best].cut_elems) best = k;
  return best;
}

std::vector<double> layer_saliency(nn::Sequential& backbone, const Tensor& x,
                                   const Tensor& grad_out) {
  // Forward through each layer (populating the backward caches), then walk
  // the gradient back one layer at a time, recording its mean magnitude at
  // every boundary.
  const size_t n = backbone.size();
  Tensor h = x;
  for (size_t i = 0; i < n; ++i) h = backbone.layer(i).forward(h);
  check_arg(grad_out.shape() == h.shape(),
            "layer_saliency: gradient shape mismatch");

  std::vector<double> saliency(n + 1, 0.0);
  Tensor g = grad_out;
  auto mean_abs = [](const Tensor& t) {
    double acc = 0.0;
    for (float v : t.span()) acc += std::abs(static_cast<double>(v));
    return t.numel() > 0 ? acc / static_cast<double>(t.numel()) : 0.0;
  };
  saliency[n] = mean_abs(g);
  for (size_t i = n; i-- > 0;) {
    g = backbone.layer(i).backward(g);
    saliency[i] = mean_abs(g);
  }
  return saliency;
}

size_t select_split_saliency(const std::vector<SplitCandidate>& frontier,
                             const std::vector<double>& saliency,
                             double size_slack) {
  check_arg(frontier.size() == saliency.size(),
            "select_split_saliency: frontier/saliency size mismatch");
  check_arg(frontier.size() > 1, "select_split_saliency: need cuts beyond 0");
  check_arg(size_slack >= 1.0, "select_split_saliency: slack must be >= 1");

  int64_t min_elems = std::numeric_limits<int64_t>::max();
  for (size_t k = 1; k < frontier.size(); ++k)
    min_elems = std::min(min_elems, frontier[k].cut_elems);

  size_t best = 0;
  double best_saliency = std::numeric_limits<double>::infinity();
  for (size_t k = 1; k < frontier.size(); ++k) {
    if (static_cast<double>(frontier[k].cut_elems) >
        size_slack * static_cast<double>(min_elems))
      continue;
    if (saliency[k] < best_saliency) {
      best_saliency = saliency[k];
      best = k;
    }
  }
  check_arg(best != 0, "select_split_saliency: no cut within size slack");
  return best;
}

}  // namespace mtlsplit::graph
