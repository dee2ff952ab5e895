#include "sc/deployment.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "tensor/serialize.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit::sc {

namespace {

Shape image_shape_of(const Tensor& x) {
  check_arg(x.dim() == 4, "deployment: input must be [N, C, H, W]");
  return {x.size(1), x.size(2), x.size(3)};
}

int64_t heads_flops(core::MtlSplitModel& model, const Shape& zb_shape) {
  int64_t total = 0;
  for (size_t j = 0; j < model.num_tasks(); ++j)
    total += model.head(j).flops(zb_shape);
  return total;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Unbounded FIFO handing item indices between pipeline stages. close()
// wakes consumers; pop() returns false once the queue is closed and dry.
class StageQueue {
 public:
  void push(size_t v) {
    {
      std::lock_guard<std::mutex> lk(m_);
      q_.push_back(v);
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  bool pop(size_t& v) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [this] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    v = q_.front();
    q_.pop_front();
    return true;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<size_t> q_;
  bool closed_ = false;
};

}  // namespace

// ----------------------------------------------------------- ScDeployment

ScDeployment::ScDeployment(core::MtlSplitModel& model, Channel& channel,
                           DeviceProfile edge, DeviceProfile server,
                           ScDeploymentConfig cfg)
    : model_(&model),
      channel_(&channel),
      edge_(std::move(edge)),
      server_(std::move(server)),
      cfg_(std::move(cfg)) {}

void ScDeployment::ensure_compiled(const Tensor& x) {
  if (cfg_.graph == GraphExec::kEager || graph_failed_) return;
  if (model_->backbone().training()) {
    // Weights may be mutating; drop any compiled state (its weight
    // snapshots are stale) and retire the cache keys it was built under.
    if (backbone_exec_) {
      backbone_exec_.reset();
      head_execs_.clear();
      compiled_image_shape_.clear();
      ++plan_generation_;
    }
    return;
  }
  const Shape img = image_shape_of(x);
  if (backbone_exec_ && img == compiled_image_shape_) return;

  if (!cfg_.plan_cache)
    cfg_.plan_cache = std::make_shared<graph::PlanCache>();
  graph::CompileOptions opts;
  opts.exact = cfg_.graph != GraphExec::kFused;
  const std::string suffix = msg_cat("/", shape_str(img), "/",
                                     opts.exact ? "exact" : "fused", "/g",
                                     plan_generation_);
  try {
    const Shape in = {1, img[0], img[1], img[2]};
    auto bb_plan = cfg_.plan_cache->get_or_compile(
        "bb" + suffix, model_->backbone(), in, opts);
    const Shape zb_in = model_->backbone().output_shape(in);
    std::vector<std::unique_ptr<graph::GraphExecutor>> heads;
    heads.reserve(model_->num_tasks());
    for (size_t j = 0; j < model_->num_tasks(); ++j) {
      auto plan = cfg_.plan_cache->get_or_compile(
          msg_cat("head", j, suffix), model_->head(j), zb_in, opts);
      heads.push_back(std::make_unique<graph::GraphExecutor>(std::move(plan)));
    }
    backbone_exec_ = std::make_unique<graph::GraphExecutor>(std::move(bb_plan));
    head_execs_ = std::move(heads);
    compiled_image_shape_ = img;
  } catch (const std::exception&) {
    // A module the lowering does not know (or a non-NCHW pipeline): run
    // eager permanently rather than re-attempting per call.
    graph_failed_ = true;
    backbone_exec_.reset();
    head_execs_.clear();
    compiled_image_shape_.clear();
  }
}

Tensor ScDeployment::backbone_fwd(const Tensor& x) {
  if (backbone_exec_ && !model_->backbone().training() && x.dim() == 4 &&
      image_shape_of(x) == compiled_image_shape_)
    return backbone_exec_->run(x);
  return model_->forward_backbone(x);
}

std::vector<Tensor> ScDeployment::heads_fwd(const Tensor& zb) {
  if (!head_execs_.empty() && !model_->backbone().training()) {
    std::vector<Tensor> logits;
    logits.reserve(head_execs_.size());
    for (auto& ex : head_execs_) logits.push_back(ex->run(zb));
    return logits;
  }
  return model_->forward_heads(zb);
}

Tensor ScDeployment::wire_roundtrip(const Tensor& zb, WireTally& wire) {
  // --- Edge side of the wire: serialise, then (optionally) entropy-code.
  std::vector<uint8_t> msg;
  if (cfg_.encoding == ZbEncoding::kFloat32) {
    msg = serialize_tensor(zb);
  } else {
    const QuantizedTensor q = quantize_int8(zb);
    msg = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
  }
  const auto raw_bytes = static_cast<int64_t>(msg.size());
  if (cfg_.codec != WireCodec::kRaw) msg = encode_frame(msg, cfg_.codec);

  // --- Channel: packetisation/loss/retransmits are the channel's
  // business; its per-message tally carries the modelled cost back. The
  // message crossed whether or not it decodes, so it counts now.
  std::vector<uint8_t> received = channel_->transmit(std::move(msg));
  wire = channel_->last_message();
  wire.bytes_raw = raw_bytes;
  last_traffic_ += wire;

  // --- Server side: unframe (typed WireCodecError on a damaged frame),
  // deserialise (CRC-checked), dequantise below the quantise boundary.
  if (cfg_.codec != WireCodec::kRaw) received = decode_frame(received);
  const WireTensor wt = deserialize_tensor(received);
  return wt.dtype == WireDtype::kFloat32
             ? wt.f32
             : dequantize_int8({wt.shape, wt.i8, wt.scale, wt.zero_point});
}

InferenceResult ScDeployment::infer(const Tensor& x) {
  last_traffic_ = {};
  InferenceResult out;
  ensure_compiled(x);
  const auto t0 = std::chrono::steady_clock::now();

  // --- Edge device: shared backbone (Eq. 2).
  const Tensor zb = backbone_fwd(x);
  out.latency.edge_compute_s =
      edge_.compute_time(model_->backbone().flops(x.shape()));

  // --- Wire + server: real wire format, then the task heads (Eq. 3).
  const Tensor zb_rx = wire_roundtrip(zb, out.latency.wire);
  out.logits = heads_fwd(zb_rx);
  out.latency.server_compute_s =
      server_.compute_time(heads_flops(*model_, zb_rx.shape()));
  out.latency.measured_wall_s = seconds_since(t0);
  return out;
}

BatchResult ScDeployment::infer_batch(const Tensor& x) {
  last_traffic_ = {};
  check_arg(x.dim() == 4 && x.size(0) > 0,
            "infer_batch: input must be [B, C, H, W] with B >= 1");
  BatchResult out;
  ensure_compiled(x);
  const auto t0 = std::chrono::steady_clock::now();
  const int64_t b = x.size(0);
  out.items.resize(static_cast<size_t>(b));

  // --- Edge: the backbone runs once over the batch. Per-sample results are
  // bitwise identical to single-sample execution because every kernel on
  // the path reduces each output row in a fixed per-row order (DESIGN.md
  // §7); the analytic latency is attributed per request at batch size 1.
  const Tensor zb = backbone_fwd(x);
  const double edge_s = edge_.compute_time(
      model_->backbone().flops({1, x.size(1), x.size(2), x.size(3)}));

  // --- Wire: one message per sample, quantisation parameters computed on
  // the sample's own Z_b slice (exactly what that client would have sent).
  std::vector<Tensor> survivors;
  std::vector<size_t> owner;
  for (int64_t i = 0; i < b; ++i) {
    BatchItem& item = out.items[static_cast<size_t>(i)];
    item.result.latency.edge_compute_s = edge_s;
    try {
      // B == 1 skips the row copy: zb already is that sample's slice.
      Tensor zrow_storage;
      const Tensor* zrow = &zb;
      if (b > 1) {
        zrow_storage = ops::slice_batch(zb, i, i + 1);
        zrow = &zrow_storage;
      }
      survivors.push_back(wire_roundtrip(*zrow, item.result.latency.wire));
      owner.push_back(static_cast<size_t>(i));
    } catch (...) {
      item.error = std::current_exception();
    }
  }
  out.wire = last_traffic_;

  // --- Server: heads run once over the surviving sub-batch, then each
  // task's logit rows scatter back to the owning request.
  if (!survivors.empty()) {
    const Tensor zb_rx = survivors.size() == 1 ? std::move(survivors[0])
                                               : ops::concat_batch(survivors);
    std::vector<Tensor> logits = heads_fwd(zb_rx);
    const double server_s =
        server_.compute_time(heads_flops(*model_, {1, zb_rx.size(1)}));
    for (size_t s = 0; s < owner.size(); ++s) {
      BatchItem& item = out.items[owner[s]];
      item.result.logits.reserve(logits.size());
      for (Tensor& l : logits)
        item.result.logits.push_back(
            owner.size() == 1
                ? std::move(l)
                : ops::slice_batch(l, static_cast<int64_t>(s),
                                   static_cast<int64_t>(s) + 1));
      item.result.latency.server_compute_s = server_s;
      item.result.latency.measured_wall_s = seconds_since(t0);
    }
  }
  out.measured_wall_s = seconds_since(t0);
  return out;
}

StreamResult ScDeployment::infer_stream(const std::vector<Tensor>& inputs) {
  return infer_stream(inputs, StreamItemFn());
}

StreamResult ScDeployment::infer_stream(const std::vector<Tensor>& inputs,
                                        const StreamItemFn& on_item) {
  StreamResult out;
  last_traffic_ = {};
  const size_t n = inputs.size();
  out.results.resize(n);
  if (n == 0) return out;
  // Compile on the caller BEFORE the stage threads spawn: the executors
  // are immutable (and stage-private) once the pipeline is running.
  ensure_compiled(inputs[0]);

  // Per-item intermediates handed between stages; each index is owned by
  // exactly one stage at a time, so no locking beyond the queues.
  std::vector<Tensor> zb(n), zb_rx(n);
  StageQueue to_wire, to_server;
  std::mutex err_mu;
  std::exception_ptr error;
  auto record_error = [&] {
    std::lock_guard<std::mutex> lk(err_mu);
    if (!error) error = std::current_exception();
  };
  const auto t0 = std::chrono::steady_clock::now();

  // --- Stage 1 (edge thread): shared backbone per item.
  std::thread edge_thread([&] {
    try {
      for (size_t i = 0; i < n; ++i) {
        zb[i] = backbone_fwd(inputs[i]);
        out.results[i].latency.edge_compute_s = edge_.compute_time(
            model_->backbone().flops(inputs[i].shape()));
        to_wire.push(i);
      }
    } catch (...) {
      record_error();
    }
    to_wire.close();
  });

  // --- Stage 2 (wire thread): serialise -> channel -> deserialise.
  std::thread wire_thread([&] {
    try {
      size_t i;
      while (to_wire.pop(i)) {
        zb_rx[i] = wire_roundtrip(zb[i], out.results[i].latency.wire);
        zb[i] = Tensor();  // edge copy no longer needed
        to_server.push(i);
      }
    } catch (...) {
      record_error();
    }
    to_server.close();
  });

  // --- Stage 3 (caller): task heads per item.
  try {
    size_t i;
    while (to_server.pop(i)) {
      InferenceResult& r = out.results[i];
      r.logits = heads_fwd(zb_rx[i]);
      r.latency.server_compute_s =
          server_.compute_time(heads_flops(*model_, zb_rx[i].shape()));
      r.latency.measured_wall_s = seconds_since(t0);
      zb_rx[i] = Tensor();
      if (on_item) on_item(i, r);
    }
  } catch (...) {
    record_error();
  }

  edge_thread.join();
  wire_thread.join();
  out.measured_wall_s = seconds_since(t0);
  if (error) std::rethrow_exception(error);

  // Analytic view of the same stream: strictly serial vs the three-stage
  // pipeline recurrence (a stage is busy with one item at a time).
  double edge_free = 0.0, wire_free = 0.0, server_free = 0.0;
  for (const InferenceResult& r : out.results) {
    const LatencyBreakdown& lat = r.latency;
    out.analytic_serial_s += lat.total_s();
    edge_free += lat.edge_compute_s;
    wire_free = std::max(edge_free, wire_free) + lat.wire.time_s;
    server_free = std::max(wire_free, server_free) + lat.server_compute_s;
  }
  out.analytic_pipelined_s = server_free;
  return out;
}

double ScDeployment::edge_memory_bytes(const Shape& image_shape) const {
  check_arg(image_shape.size() == 3,
            "edge_memory_bytes: image shape must be {C,H,W}");
  const Shape in = {1, image_shape[0], image_shape[1], image_shape[2]};
  const nn::Sequential& bb = const_cast<core::MtlSplitModel*>(model_)->backbone();
  int64_t params = 0;
  for (nn::Parameter* p :
       const_cast<nn::Sequential&>(bb).parameters())
    params += p->value.numel();
  return 4.0 * static_cast<double>(params + bb.activation_elems(in));
}

// ---------------------------------------------------------- RocDeployment

RocDeployment::RocDeployment(core::MtlSplitModel& model, Channel& channel,
                             DeviceProfile server)
    : model_(&model), channel_(&channel), server_(std::move(server)) {}

InferenceResult RocDeployment::infer(const Tensor& x) {
  InferenceResult out;
  const auto t0 = std::chrono::steady_clock::now();
  // Raw input crosses the channel (uncoded: RoC predates the bottleneck,
  // so there is nothing sparse to entropy-code)...
  const std::vector<uint8_t> received =
      channel_->transmit(serialize_tensor(x));
  out.latency.wire = channel_->last_message();
  const WireTensor wt = deserialize_tensor(received);
  check_arg(wt.dtype == WireDtype::kFloat32, "RoC: unexpected wire dtype");

  // ...and the entire model runs remotely.
  const Tensor zb = model_->forward_backbone(wt.f32);
  out.logits = model_->forward_heads(zb);
  out.latency.server_compute_s = server_.compute_time(
      model_->backbone().flops(wt.f32.shape()) +
      heads_flops(*model_, zb.shape()));
  out.latency.measured_wall_s = seconds_since(t0);
  return out;
}

// ---------------------------------------------------------- LocDeployment

LocDeployment::LocDeployment(core::MtlSplitModel& model, DeviceProfile edge)
    : model_(&model), edge_(std::move(edge)) {}

InferenceResult LocDeployment::infer(const Tensor& x) {
  if (!feasible(image_shape_of(x)))
    throw std::runtime_error(
        "LocDeployment: model working set exceeds edge memory (" +
        edge_.name + ")");
  InferenceResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const Tensor zb = model_->forward_backbone(x);
  out.logits = model_->forward_heads(zb);
  out.latency.edge_compute_s = edge_.compute_time(
      model_->backbone().flops(x.shape()) + heads_flops(*model_, zb.shape()));
  out.latency.measured_wall_s = seconds_since(t0);
  return out;
}

double LocDeployment::memory_bytes(const Shape& image_shape) const {
  check_arg(image_shape.size() == 3,
            "memory_bytes: image shape must be {C,H,W}");
  const Shape in = {1, image_shape[0], image_shape[1], image_shape[2]};
  auto* model = const_cast<core::MtlSplitModel*>(model_);
  int64_t params = 0;
  for (nn::Parameter* p : model->all_params()) params += p->value.numel();
  const Shape zb_shape = model->backbone().output_shape(in);
  int64_t acts = model->backbone().activation_elems(in);
  for (size_t j = 0; j < model->num_tasks(); ++j)
    acts += model->head(j).activation_elems(zb_shape);
  return 4.0 * static_cast<double>(params + acts);
}

}  // namespace mtlsplit::sc
