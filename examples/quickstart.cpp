// Quickstart: the smallest end-to-end MTL-Split program.
//
//  1. synthesise a two-task dataset,
//  2. build a shared backbone + two task heads (Fig. 1),
//  3. train jointly with the summed loss (Eq. 4),
//  4. evaluate per task,
//  5. run one inference through the split edge/server path.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "data/shapes3d.hpp"
#include "mtl/model_factory.hpp"
#include "mtl/trainer.hpp"
#include "sc/deployment.hpp"

using namespace mtlsplit;

int main() {
  // 1. Data: a 3D-Shapes-like scene generator; T1 = object scale (8
  //    classes), T2 = object shape (4 classes).
  data::Shapes3dConfig dcfg;
  dcfg.count = 1200;
  dcfg.image_size = 16;
  dcfg.noise_frac = 0.0f;
  const auto dataset = data::make_shapes3d_t1t2(dcfg);
  Rng split_rng(1);
  const auto split = data::train_test_split(dataset, 0.2, split_rng);
  std::printf("dataset: %lld train / %lld test, tasks: %s(%lld) %s(%lld)\n",
              static_cast<long long>(split.train.size()),
              static_cast<long long>(split.test.size()),
              dataset.task(0).name.c_str(),
              static_cast<long long>(dataset.task(0).num_classes),
              dataset.task(1).name.c_str(),
              static_cast<long long>(dataset.task(1).num_classes));

  // 2. Model: MobileNetV3-style shared backbone, one MLP head per task.
  Rng rng(2);
  core::ModelFactoryConfig mcfg;
  mcfg.backbone = models::BackboneKind::kMobileNetV3;
  mcfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(
      mcfg, {dataset.task(0), dataset.task(1)}, rng);
  std::printf("model: |Z_b| = %lld floats\n",
              static_cast<long long>(model->zb_dim({3, 16, 16})));

  // 3. Train jointly (AdamW, summed per-task cross-entropy).
  core::TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batch_size = 16;
  tcfg.lr = 3e-3f;
  tcfg.on_epoch = [](int64_t epoch, float loss) {
    std::printf("  epoch %lld  L_total %.3f\n",
                static_cast<long long>(epoch), loss);
  };
  core::train_model(*model, split.train, tcfg);

  // 4. Evaluate per task.
  const auto acc = core::evaluate_model(*model, split.test);
  std::printf("test accuracy: %s %.1f%%, %s %.1f%%\n",
              dataset.task(0).name.c_str(), 100.0 * acc[0],
              dataset.task(1).name.c_str(), 100.0 * acc[1]);

  // 5. Split inference: edge backbone -> wire -> server heads.
  model->set_training(false);
  sc::Channel channel({.bandwidth_bps = 1e9});
  sc::ScDeployment deployment(*model, channel, sc::jetson_nano(),
                              sc::rtx3090_server());
  const data::Batch one = data::gather_batch(split.test,
                                             std::vector<int64_t>{0});
  const auto result = deployment.infer(one.images);
  std::printf(
      "split inference: %lld bytes over the wire, %.3f ms modelled total "
      "(edge %.3f + wire %.3f + server %.3f)\n",
      static_cast<long long>(result.latency.wire.bytes),
      1e3 * result.latency.total_s(), 1e3 * result.latency.edge_compute_s,
      1e3 * result.latency.wire.time_s, 1e3 * result.latency.server_compute_s);
  return 0;
}
