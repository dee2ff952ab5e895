#include "mtl/trainer.hpp"

#include "mtl/metrics.hpp"
#include "nn/loss.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit::core {

TrainHistory train_model(MtlSplitModel& model,
                         const data::MultiTaskDataset& train_set,
                         const TrainConfig& cfg) {
  check_arg(cfg.epochs > 0, "train_model: epochs must be positive");
  check_arg(static_cast<size_t>(train_set.num_tasks()) == model.num_tasks(),
            "train_model: dataset/model task count mismatch");

  Rng rng(cfg.seed);
  optim::AdamWConfig oc;
  oc.lr = cfg.lr;
  oc.weight_decay = cfg.weight_decay;
  optim::AdamW opt(model.all_params(), oc);
  LossBalancer balancer(cfg.weighting, model.num_tasks());

  data::DataLoader loader(train_set, cfg.batch_size, /*shuffle=*/true,
                          /*drop_last=*/true);
  model.set_training(true);

  TrainHistory hist;
  const size_t nt = model.num_tasks();
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    loader.reset(rng);
    data::Batch batch;
    double epoch_loss = 0.0;
    std::vector<double> epoch_task_loss(nt, 0.0);
    int64_t batches = 0;
    while (loader.next(batch)) {
      std::vector<Tensor> logits = model.forward(batch.images);
      std::vector<Tensor> grads(nt);
      std::vector<float> losses(nt);
      // Per-task losses are independent given the logits; fan them out on
      // the pool. The balancer weights are read-only here (update() runs
      // after the parallel region).
      runtime::parallel_for(
          0, static_cast<int64_t>(nt), 1, [&](int64_t lo, int64_t hi) {
            for (int64_t ji = lo; ji < hi; ++ji) {
              const auto j = static_cast<size_t>(ji);
              nn::LossResult r =
                  nn::cross_entropy(logits[j], batch.labels[j]);
              losses[j] = r.loss;
              const float w = balancer.weight(j);
              if (w != 1.0f) ops::scale_(r.grad, w);
              grads[j] = std::move(r.grad);
            }
          });
      for (size_t j = 0; j < nt; ++j) epoch_task_loss[j] += losses[j];
      epoch_loss += balancer.total_loss(losses);
      balancer.update(losses);
      model.backward(grads);
      opt.step();
      ++batches;
    }
    check_arg(batches > 0, "train_model: no full batch fits the dataset");
    hist.epoch_loss.push_back(
        static_cast<float>(epoch_loss / static_cast<double>(batches)));
    std::vector<float> tl(nt);
    for (size_t j = 0; j < nt; ++j)
      tl[j] = static_cast<float>(epoch_task_loss[j] /
                                 static_cast<double>(batches));
    hist.task_loss.push_back(std::move(tl));
    if (cfg.on_epoch) cfg.on_epoch(epoch, hist.epoch_loss.back());
  }
  return hist;
}

std::vector<double> evaluate_model(MtlSplitModel& model,
                                   const data::MultiTaskDataset& test_set,
                                   int64_t batch_size) {
  check_arg(static_cast<size_t>(test_set.num_tasks()) == model.num_tasks(),
            "evaluate_model: dataset/model task count mismatch");
  const bool was_training = model.backbone().training();
  model.set_training(false);
  data::DataLoader loader(test_set, batch_size, /*shuffle=*/false);
  Rng rng(0);  // unused by an unshuffled loader, but reset() requires one
  loader.reset(rng);
  std::vector<AccuracyMeter> meters(model.num_tasks());
  data::Batch batch;
  while (loader.next(batch)) {
    const std::vector<Tensor> logits = model.forward(batch.images);
    for (size_t j = 0; j < meters.size(); ++j)
      meters[j].update(logits[j], batch.labels[j]);
  }
  std::vector<double> acc(meters.size());
  for (size_t j = 0; j < meters.size(); ++j) acc[j] = meters[j].value();
  model.set_training(was_training);
  return acc;
}

}  // namespace mtlsplit::core
