// Task-loss weighting strategies for L_total.
//
// The paper's Eq. 4 is the plain unweighted sum; it cites Kendall et al.'s
// uncertainty weighting [16] as the loss-function line of MTL work. Both
// are provided, and bench_paper's lossw scenario compares them.
//
// Uncertainty weighting learns one log-variance s_j per task and optimises
//   L_total = sum_j ( exp(-s_j) * L_j + s_j )
// so noisy tasks are automatically down-weighted. The s_j are updated with
// plain gradient descent here (dL/ds_j = 1 - exp(-s_j) L_j).
#pragma once

#include <vector>

#include "tensor/check.hpp"

namespace mtlsplit::core {

enum class LossWeighting { kUniform, kUncertainty };

class LossBalancer {
 public:
  LossBalancer(LossWeighting strategy, size_t num_tasks, float s_lr = 0.01f);

  /// Multiplier for task @p j's loss gradient in the current step.
  float weight(size_t j) const;

  /// Regularised total loss (equals the plain sum for kUniform).
  float total_loss(const std::vector<float>& task_losses) const;

  /// Updates the learned log-variances from the observed losses
  /// (no-op for kUniform).
  void update(const std::vector<float>& task_losses);

  const std::vector<float>& log_vars() const { return s_; }

 private:
  LossWeighting strategy_;
  std::vector<float> s_;  // log-variances, kUncertainty only
  float s_lr_;
};

}  // namespace mtlsplit::core
