#include "mtl/mtl_model.hpp"

#include "runtime/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit::core {

MtlSplitModel::MtlSplitModel(
    std::unique_ptr<nn::Sequential> backbone,
    std::vector<std::unique_ptr<nn::Sequential>> heads,
    std::vector<data::TaskSpec> tasks)
    : backbone_(std::move(backbone)),
      heads_(std::move(heads)),
      tasks_(std::move(tasks)) {
  check_arg(backbone_ != nullptr, "MtlSplitModel: null backbone");
  check_arg(!heads_.empty(), "MtlSplitModel: need at least one head");
  check_arg(heads_.size() == tasks_.size(),
            "MtlSplitModel: head/task count mismatch");
  for (const auto& h : heads_)
    check_arg(h != nullptr, "MtlSplitModel: null head");
}

std::vector<Tensor> MtlSplitModel::forward(const Tensor& x) {
  const Tensor zb = backbone_->forward(x);
  return forward_heads(zb);
}

Tensor MtlSplitModel::backward(const std::vector<Tensor>& grad_logits) {
  check_arg(grad_logits.size() == heads_.size(),
            "MtlSplitModel::backward: need one gradient per task");
  // Eq. 4: dL_total/dZ_b = sum_j dL_j/dZ_b — the heads' input gradients
  // accumulate before flowing into the shared backbone. Each head is an
  // independent module tree, so the per-task backward passes fan out across
  // the pool; the sum then runs in task order to keep the reduction
  // bit-identical to serial execution.
  std::vector<Tensor> head_grads(heads_.size());
  runtime::parallel_for(
      0, static_cast<int64_t>(heads_.size()), 1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t j = lo; j < hi; ++j)
          head_grads[static_cast<size_t>(j)] =
              heads_[static_cast<size_t>(j)]->backward(
                  grad_logits[static_cast<size_t>(j)]);
      });
  Tensor grad_zb = std::move(head_grads[0]);
  for (size_t j = 1; j < head_grads.size(); ++j)
    ops::add_(grad_zb, head_grads[j]);
  return backbone_->backward(grad_zb);
}

Tensor MtlSplitModel::forward_backbone(const Tensor& x) {
  return backbone_->forward(x);
}

std::vector<Tensor> MtlSplitModel::forward_heads(const Tensor& zb) {
  // The per-task heads share only their (read-only) input, so the forward
  // fan-out of Eq. 3 runs one head per pool lane.
  std::vector<Tensor> logits(heads_.size());
  runtime::parallel_for(
      0, static_cast<int64_t>(heads_.size()), 1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t j = lo; j < hi; ++j)
          logits[static_cast<size_t>(j)] =
              heads_[static_cast<size_t>(j)]->forward(zb);
      });
  return logits;
}

Tensor MtlSplitModel::forward_head(const Tensor& zb, size_t j) {
  check_bounds(j < heads_.size(), "forward_head: task out of range");
  return heads_[j]->forward(zb);
}

std::vector<nn::Parameter*> MtlSplitModel::head_params(size_t j) {
  check_bounds(j < heads_.size(), "head_params: task out of range");
  return heads_[j]->parameters();
}

std::vector<nn::Parameter*> MtlSplitModel::all_head_params() {
  std::vector<nn::Parameter*> out;
  for (auto& h : heads_)
    for (nn::Parameter* p : h->parameters()) out.push_back(p);
  return out;
}

std::vector<nn::Parameter*> MtlSplitModel::all_params() {
  std::vector<nn::Parameter*> out = backbone_->parameters();
  for (nn::Parameter* p : all_head_params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> MtlSplitModel::all_buffers() {
  std::vector<Tensor*> out = backbone_->buffers();
  for (auto& h : heads_)
    for (Tensor* b : h->buffers()) out.push_back(b);
  return out;
}

void MtlSplitModel::set_training(bool training) {
  backbone_->set_training(training);
  for (auto& h : heads_) h->set_training(training);
}

void MtlSplitModel::zero_grad() {
  backbone_->zero_grad();
  for (auto& h : heads_) h->zero_grad();
}

nn::Sequential& MtlSplitModel::head(size_t j) {
  check_bounds(j < heads_.size(), "head: task out of range");
  return *heads_[j];
}

void copy_model_state(MtlSplitModel& dst, MtlSplitModel& src) {
  const auto dp = dst.all_params();
  const auto sp = src.all_params();
  check_arg(dp.size() == sp.size(),
            "copy_model_state: models are not structurally identical");
  for (size_t i = 0; i < dp.size(); ++i) {
    check_arg(same_shape(dp[i]->value.shape(), sp[i]->value.shape()),
              "copy_model_state: parameter shape mismatch at ", sp[i]->name);
    dp[i]->value = sp[i]->value;
  }
  const auto db = dst.all_buffers();
  const auto sb = src.all_buffers();
  check_arg(db.size() == sb.size(),
            "copy_model_state: buffer count mismatch");
  for (size_t i = 0; i < db.size(); ++i) *db[i] = *sb[i];
}

int64_t MtlSplitModel::zb_dim(const Shape& image_shape) const {
  check_arg(image_shape.size() == 3, "zb_dim: image shape must be {C,H,W}");
  const Shape out = backbone_->output_shape(
      {1, image_shape[0], image_shape[1], image_shape[2]});
  check_arg(out.size() == 2, "zb_dim: backbone must flatten its output");
  return out[1];
}

}  // namespace mtlsplit::core
