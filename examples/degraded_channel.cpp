// Degraded-channel study — §1's motivation for Split Computing: "data
// transfer could lead to excessive latency times, especially in degraded
// channel conditions."
//
// Trains a small MTL-Split model, then sweeps channel quality and shows
// where each deployment paradigm (LoC / RoC / SC fp32 / SC int8) wins,
// including the failure modes: a corrupting channel whose CRC rejects
// the payload, and a packetised lossy link whose bounded retransmit loop
// (with the entropy wire codec on top) repairs 5% packet loss without
// touching the logits.
#include <cstdio>

#include "data/shapes3d.hpp"
#include "mtl/model_factory.hpp"
#include "mtl/trainer.hpp"
#include "sc/deployment.hpp"

using namespace mtlsplit;

int main() {
  data::Shapes3dConfig dcfg;
  dcfg.count = 800;
  dcfg.image_size = 16;
  const auto dataset = data::make_shapes3d_t1t2(dcfg);

  Rng rng(7);
  core::ModelFactoryConfig mcfg;
  mcfg.backbone = models::BackboneKind::kMobileNetV3;
  mcfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(
      mcfg, {dataset.task(0), dataset.task(1)}, rng);
  core::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 16;
  core::train_model(*model, dataset, tcfg);
  model->set_training(false);

  const data::Batch frame =
      data::gather_batch(dataset, std::vector<int64_t>{0});
  const auto jetson = sc::jetson_nano();
  const auto server = sc::rtx3090_server();

  std::printf("per-frame latency (ms) across channel conditions:\n\n");
  std::printf("%-26s | %9s | %9s | %9s | %9s\n", "channel", "LoC", "RoC",
              "SC fp32", "SC int8");
  for (int i = 0; i < 74; ++i) std::putchar('-');
  std::putchar('\n');

  struct Condition {
    const char* name;
    double bw;
    double lat;
    double deg;
  };
  const Condition conditions[] = {
      {"fibre   1 Gb/s, 1 ms", 1e9, 0.001, 0.0},
      {"wifi  100 Mb/s, 5 ms", 1e8, 0.005, 0.0},
      {"lte    20 Mb/s, 25 ms", 2e7, 0.025, 0.0},
      {"lte congested (70%)", 2e7, 0.025, 0.7},
      {"edge    1 Mb/s, 80 ms", 1e6, 0.080, 0.0},
  };
  for (const Condition& c : conditions) {
    sc::Channel ch({.bandwidth_bps = c.bw, .base_latency_s = c.lat,
                    .degradation = c.deg});
    sc::LocDeployment loc(*model, jetson);
    sc::RocDeployment roc(*model, ch, server);
    sc::ScDeployment scf(*model, ch, jetson, server);
    sc::ScDeployment sci(*model, ch, jetson, server,
                         {.encoding = sc::ZbEncoding::kInt8});
    std::printf("%-26s | %9.2f | %9.2f | %9.2f | %9.2f\n", c.name,
                1e3 * loc.infer(frame.images).latency.total_s(),
                1e3 * roc.infer(frame.images).latency.total_s(),
                1e3 * scf.infer(frame.images).latency.total_s(),
                1e3 * sci.infer(frame.images).latency.total_s());
  }
  for (int i = 0; i < 74; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf(
      "(LoC is flat — it never touches the network — but only exists when\n"
      "the whole model fits the edge device; see the memory analysis.)\n\n");

  // Failure injection: a corrupting link. The wire format's CRC refuses
  // to deliver garbage to the heads.
  sc::Channel lossy({.bandwidth_bps = 1e8, .corrupt_prob = 0.02f, .seed = 9});
  sc::ScDeployment dep(*model, lossy, jetson, server);
  std::printf("corrupting channel (2%% byte flips): ");
  try {
    (void)dep.infer(frame.images);
    std::printf("payload survived this time (retry would be transparent)\n");
  } catch (const std::invalid_argument& e) {
    std::printf("rejected by CRC as expected -> \"%s\"\n", e.what());
  }

  // The full wire stack (DESIGN.md §9): int8 Z_b in entropy-coded frames
  // over a packetised link losing 5% of packets. The bounded retransmit
  // loop repairs the loss below the quantise boundary, so the logits are
  // bitwise those of a clean channel — at the cost of retransmit time.
  std::printf("\nlossy link (MTU 64, 5%% packet loss, entropy codec on):\n");
  sc::Channel clean({.bandwidth_bps = 1e8, .base_latency_s = 0.001});
  sc::ScDeployment ref(*model, clean, jetson, server,
                       {.encoding = sc::ZbEncoding::kInt8});
  sc::Channel link({.bandwidth_bps = 1e8,
                    .base_latency_s = 0.001,
                    .seed = 9,
                    .link = {.mtu_bytes = 64,
                             .loss_prob = 0.05f,
                             .jitter_s = 0.0002,
                             .max_retransmits = 8}});
  sc::ScDeployment cdep(*model, link, jetson, server,
                        {.encoding = sc::ZbEncoding::kInt8,
                         .codec = sc::WireCodec::kEntropy});
  const auto want = ref.infer(frame.images);
  const auto got = cdep.infer(frame.images);
  bool bitwise = want.logits.size() == got.logits.size();
  for (size_t j = 0; bitwise && j < want.logits.size(); ++j)
    bitwise = got.logits[j].equals(want.logits[j]);
  std::printf("  wire bytes %lld raw -> %lld framed, %lld retransmit(s), "
              "wire time %.2f ms (clean: %.2f ms)\n",
              static_cast<long long>(got.latency.wire.bytes_raw),
              static_cast<long long>(got.latency.wire.bytes),
              static_cast<long long>(got.latency.wire.retransmits),
              1e3 * got.latency.wire.time_s, 1e3 * want.latency.wire.time_s);
  std::printf("  logits bitwise identical to the clean channel: %s\n",
              bitwise ? "yes" : "NO — BUG");
  return bitwise ? 0 : 1;
}
