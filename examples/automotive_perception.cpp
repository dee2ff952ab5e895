// Automotive perception — the paper's motivating scenario (§1): a camera
// on a resource-constrained vehicle platform must solve several inference
// tasks per frame (what is ahead? how severe / how large?) without the
// memory for one dedicated DNN per task.
//
// This example stages that pipeline end to end on the MEDIC-like hazard
// imagery: one shared backbone on the (simulated) Jetson Nano, two task
// heads on the remote server, a latency budget check per frame, and the
// LoC alternative shown failing the memory budget as N grows.
#include <cstdio>

#include "data/medic_synth.hpp"
#include "models/profile.hpp"
#include "mtl/model_factory.hpp"
#include "mtl/trainer.hpp"
#include "sc/deployment.hpp"

using namespace mtlsplit;

int main() {
  std::printf("=== automotive-style multi-task perception demo ===\n\n");

  // Hazard-scene data: T1 = severity (3 classes), T2 = hazard type (4).
  data::MedicSynthConfig dcfg;
  dcfg.count = 1500;
  dcfg.image_size = 16;
  dcfg.label_noise = 0.2f;  // milder than the Table 2 setting
  const auto dataset = data::make_medic_synth(dcfg);
  Rng split_rng(1);
  const auto split = data::train_test_split(dataset, 0.2, split_rng);

  Rng rng(2);
  core::ModelFactoryConfig mcfg;
  mcfg.backbone = models::BackboneKind::kEfficientNet;
  mcfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(
      mcfg, {dataset.task(0), dataset.task(1)}, rng);

  core::TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batch_size = 16;
  tcfg.lr = 2e-3f;
  std::printf("training shared backbone + 2 heads...\n");
  core::train_model(*model, split.train, tcfg);
  const auto acc = core::evaluate_model(*model, split.test);
  std::printf("  severity %.1f%%  hazard-type %.1f%%\n\n", 100.0 * acc[0],
              100.0 * acc[1]);
  model->set_training(false);

  // --- Deployment planning: which paradigm meets a 30 ms frame budget
  //     over a lossy cellular link?
  constexpr double kFrameBudgetMs = 30.0;
  sc::Channel cellular({.bandwidth_bps = 50e6,   // 50 Mb/s uplink
                        .base_latency_s = 0.004,  // 4 ms RTT/2
                        .degradation = 0.3});     // busy cell
  const auto jetson = sc::jetson_nano();
  const auto server = sc::rtx3090_server();

  const data::Batch frame =
      data::gather_batch(split.test, std::vector<int64_t>{0});

  sc::LocDeployment loc(*model, jetson);
  sc::RocDeployment roc(*model, cellular, server);
  sc::ScDeployment scd(*model, cellular, jetson, server);

  std::printf("per-frame latency vs the %.0f ms budget (cellular link):\n",
              kFrameBudgetMs);
  auto report = [&](const char* name, const sc::InferenceResult& r) {
    const double ms = 1e3 * r.latency.total_s();
    std::printf("  %-22s %8.2f ms  (%5lld wire bytes)  %s\n", name, ms,
                static_cast<long long>(r.latency.wire.bytes),
                ms <= kFrameBudgetMs ? "MEETS budget" : "misses budget");
  };
  report("LoC (all on vehicle)", loc.infer(frame.images));
  report("RoC (raw frame out)", roc.infer(frame.images));
  report("SC  (MTL-Split)", scd.infer(frame.images));

  // --- The memory story that motivates MTL in the first place (§1):
  //     dedicated STL networks per task vs one shared backbone, at the
  //     paper's full scale on the 4 GB board.
  std::printf("\nvehicle memory budget, full-scale EfficientNet @224:\n");
  Rng prof_rng(3);
  auto full = models::build_backbone(
      {models::BackboneKind::kEfficientNet, models::BackboneScale::kFull, 3},
      prof_rng);
  const auto prof = models::profile_model(*full, {1, 3, 224, 224});
  const double one_net_mb = prof.params_mb() + prof.forward_backward_mb() / 2;
  for (int n_tasks = 1; n_tasks <= 4; ++n_tasks) {
    const double loc_mb = n_tasks * one_net_mb;
    std::printf(
        "  %d task(s): STL-per-task %7.0f MB %-14s | shared backbone %5.0f MB"
        " fits\n",
        n_tasks, loc_mb,
        loc_mb <= 4096 ? "fits" : "EXCEEDS 4 GB",
        one_net_mb);
  }
  std::printf(
      "\nconclusion: one shared backbone + remote heads solves both the\n"
      "memory wall and the bandwidth wall for multi-task perception.\n");
  return 0;
}
