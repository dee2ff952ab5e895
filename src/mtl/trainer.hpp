// Joint multi-task training (paper §3.2) and evaluation.
//
// The train step implements Eq. 4 exactly: per-task cross-entropy losses
// are computed on each head's logits, their gradients seed each head's
// backward pass, the heads' input gradients sum into dL_total/dZ_b and flow
// through the shared backbone, and one optimizer step updates psi and all
// theta_j together. STL baselines are the same loop with a single task.
#pragma once

#include <functional>
#include <vector>

#include "data/dataloader.hpp"
#include "mtl/loss_balancer.hpp"
#include "mtl/mtl_model.hpp"
#include "optim/adamw.hpp"

namespace mtlsplit::core {

struct TrainConfig {
  int64_t epochs = 5;
  int64_t batch_size = 32;
  float lr = 1e-3f;           ///< AdamW learning rate (paper uses AdamW)
  float weight_decay = 1e-4f;
  LossWeighting weighting = LossWeighting::kUniform;
  uint64_t seed = 7;
  /// Optional per-epoch callback: (epoch, mean train loss).
  std::function<void(int64_t, float)> on_epoch;
};

struct TrainHistory {
  std::vector<float> epoch_loss;             ///< mean L_total per epoch
  std::vector<std::vector<float>> task_loss; ///< per epoch, per task
};

/// Trains @p model jointly on all tasks of @p train_set.
TrainHistory train_model(MtlSplitModel& model,
                         const data::MultiTaskDataset& train_set,
                         const TrainConfig& cfg);

/// Test accuracy per task (same order as the model's tasks), measured in
/// eval mode; the model is left in the mode it was in.
std::vector<double> evaluate_model(MtlSplitModel& model,
                                   const data::MultiTaskDataset& test_set,
                                   int64_t batch_size = 64);

}  // namespace mtlsplit::core
