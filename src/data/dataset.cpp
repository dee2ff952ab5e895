#include "data/dataset.hpp"

#include <cstring>

#include "runtime/thread_pool.hpp"

namespace mtlsplit::data {

namespace {
// Samples per chunk when assembling batches/subsets in parallel; image
// copies are pure memcpy, so chunks stay fairly large.
constexpr int64_t kGatherGrain = 8;
}  // namespace

MultiTaskDataset::MultiTaskDataset(Tensor images,
                                   std::vector<std::vector<int64_t>> labels,
                                   std::vector<TaskSpec> tasks)
    : images_(std::move(images)),
      labels_(std::move(labels)),
      tasks_(std::move(tasks)) {
  check_arg(images_.dim() == 4, "MultiTaskDataset: images must be [K,C,H,W]");
  check_arg(labels_.size() == tasks_.size(),
            "MultiTaskDataset: label/task count mismatch");
  const auto k = static_cast<size_t>(images_.size(0));
  for (size_t j = 0; j < labels_.size(); ++j) {
    check_arg(labels_[j].size() == k,
              "MultiTaskDataset: task ", j, " has ", labels_[j].size(),
              " labels for ", k, " images");
    check_arg(tasks_[j].num_classes > 1,
              "MultiTaskDataset: task ", j, " needs >= 2 classes");
    for (int64_t y : labels_[j])
      check_arg(y >= 0 && y < tasks_[j].num_classes,
                "MultiTaskDataset: label ", y, " out of range for task ",
                tasks_[j].name);
  }
}

MultiTaskDataset MultiTaskDataset::subset(
    const std::vector<int64_t>& indices) const {
  check_arg(size() > 0, "subset: empty dataset");
  const int64_t c = images_.size(1), h = images_.size(2), w = images_.size(3);
  const int64_t stride = c * h * w;
  Tensor imgs({static_cast<int64_t>(indices.size()), c, h, w});
  std::vector<std::vector<int64_t>> labels(
      labels_.size(), std::vector<int64_t>(indices.size()));
  float* dst = imgs.data();
  for (const int64_t idx : indices)
    check_bounds(idx >= 0 && idx < size(), "subset: index out of range");
  runtime::parallel_for(
      0, static_cast<int64_t>(indices.size()), kGatherGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t idx = indices[static_cast<size_t>(i)];
          std::memcpy(dst + i * stride, images_.data() + idx * stride,
                      static_cast<size_t>(stride) * sizeof(float));
          for (size_t j = 0; j < labels_.size(); ++j)
            labels[j][static_cast<size_t>(i)] =
                labels_[j][static_cast<size_t>(idx)];
        }
      });
  return MultiTaskDataset(std::move(imgs), std::move(labels), tasks_);
}

MultiTaskDataset MultiTaskDataset::select_tasks(
    const std::vector<size_t>& task_indices) const {
  check_arg(!task_indices.empty(), "select_tasks: no tasks selected");
  std::vector<std::vector<int64_t>> labels;
  std::vector<TaskSpec> tasks;
  for (size_t j : task_indices) {
    check_bounds(j < tasks_.size(), "select_tasks: task out of range");
    labels.push_back(labels_[j]);
    tasks.push_back(tasks_[j]);
  }
  return MultiTaskDataset(images_, std::move(labels), std::move(tasks));
}

Batch gather_batch(const MultiTaskDataset& ds,
                   std::span<const int64_t> indices) {
  check_arg(ds.size() > 0, "gather_batch: empty dataset");
  const Tensor& imgs = ds.images();
  const int64_t c = imgs.size(1), h = imgs.size(2), w = imgs.size(3);
  const int64_t stride = c * h * w;
  Batch b;
  b.images = Tensor({static_cast<int64_t>(indices.size()), c, h, w});
  b.labels.assign(static_cast<size_t>(ds.num_tasks()),
                  std::vector<int64_t>(indices.size()));
  float* dst = b.images.data();
  for (const int64_t idx : indices)
    check_bounds(idx >= 0 && idx < ds.size(),
                 "gather_batch: index out of range");
  // Batch assembly overlaps the per-sample image copies across the pool;
  // every destination row is written by exactly one chunk.
  runtime::parallel_for(
      0, static_cast<int64_t>(indices.size()), kGatherGrain,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t idx = indices[static_cast<size_t>(i)];
          std::memcpy(dst + i * stride, imgs.data() + idx * stride,
                      static_cast<size_t>(stride) * sizeof(float));
          for (size_t j = 0; j < b.labels.size(); ++j)
            b.labels[j][static_cast<size_t>(i)] =
                ds.labels(j)[static_cast<size_t>(idx)];
        }
      });
  return b;
}

}  // namespace mtlsplit::data
