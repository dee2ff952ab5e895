// Fault injection over the serving wire: FaultInjectChannel corrupts or
// drops every k-th message on a deterministic schedule; exactly the
// owning request of each faulted message is poisoned, every other future
// settles with bitwise-correct logits, and the server stays serviceable
// afterwards (DESIGN.md §8).
#include <gtest/gtest.h>

#include <thread>

#include "mtl/model_factory.hpp"
#include "serve/server.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit {
namespace {

struct FaultRig {
  std::unique_ptr<core::MtlSplitModel> model;
  std::unique_ptr<core::MtlSplitModel> ref_model;

  explicit FaultRig(uint64_t seed = 1) {
    core::ModelFactoryConfig cfg;
    cfg.backbone = models::BackboneKind::kMobileNetV3;
    cfg.image_shape = {3, 16, 16};
    Rng rng(seed);
    model = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng);
    model->set_training(false);
    Rng rng2(seed + 50);
    ref_model = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng2);
    core::copy_model_state(*ref_model, *model);
    ref_model->set_training(false);
  }

  Tensor input(uint64_t seed) const {
    Rng rng(seed);
    Tensor t({1, 3, 16, 16});
    rng.fill_uniform(t, 0.0f, 1.0f);
    return t;
  }
};

// ------------------------------------------------------ deployment level

TEST(FaultInject, CorruptEveryKthPoisonsExactlyThoseBatchItems) {
  FaultRig rig;
  std::vector<Tensor> inputs;
  for (uint64_t i = 0; i < 8; ++i) inputs.push_back(rig.input(100 + i));
  const Tensor batch = ops::concat_batch(inputs);

  sc::Channel clean({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.ref_model, clean, sc::jetson_nano(),
                       sc::rtx3090_server());
  const sc::BatchResult want = ref.infer_batch(batch);

  // infer_batch sends one message per sample in row order, so messages
  // 3 and 6 (1-based) belong to rows 2 and 5.
  sc::FaultInjectChannel noisy({.bandwidth_bps = 1e9}, {.every_k = 3});
  sc::ScDeployment dep(*rig.model, noisy, sc::jetson_nano(),
                       sc::rtx3090_server());
  const sc::BatchResult got = dep.infer_batch(batch);
  EXPECT_EQ(noisy.faults_injected(), 2);
  ASSERT_EQ(got.items.size(), 8u);
  for (size_t i = 0; i < got.items.size(); ++i) {
    if (i == 2 || i == 5) {
      ASSERT_FALSE(got.items[i].ok()) << "row " << i << " should be poisoned";
      EXPECT_THROW(std::rethrow_exception(got.items[i].error),
                   std::invalid_argument);  // CRC rejection
      EXPECT_TRUE(got.items[i].result.logits.empty());
    } else {
      ASSERT_TRUE(got.items[i].ok()) << "row " << i << " should survive";
      for (size_t j = 0; j < want.items[i].result.logits.size(); ++j)
        EXPECT_TRUE(got.items[i].result.logits[j].equals(
            want.items[i].result.logits[j]))
            << "survivor " << i << " diverged from the clean run";
    }
  }
}

TEST(FaultInject, DroppedMessagesFailLikeTruncatedWire) {
  FaultRig rig;
  std::vector<Tensor> inputs;
  for (uint64_t i = 0; i < 8; ++i) inputs.push_back(rig.input(200 + i));
  sc::FaultInjectChannel lossy(
      {.bandwidth_bps = 1e9},
      {.every_k = 4, .mode = sc::FaultSpec::Mode::kDrop});
  sc::ScDeployment dep(*rig.model, lossy, sc::jetson_nano(),
                       sc::rtx3090_server());
  const sc::BatchResult got = dep.infer_batch(ops::concat_batch(inputs));
  EXPECT_EQ(lossy.faults_injected(), 2);
  for (size_t i = 0; i < got.items.size(); ++i) {
    if (i == 3 || i == 7) {
      ASSERT_FALSE(got.items[i].ok());
      EXPECT_THROW(std::rethrow_exception(got.items[i].error),
                   std::invalid_argument);  // "message too short"
    } else {
      EXPECT_TRUE(got.items[i].ok());
    }
  }
}

// ---------------------------------------------------------- server level

TEST(FaultInject, ServerPoisonsOneRequestPerFaultAndStaysServiceable) {
  FaultRig rig;
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.ref_model, ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());

  // Session injection: the server uses the fault channel itself instead
  // of forking a clean session from it.
  sc::FaultInjectChannel faulty({.bandwidth_bps = 1e9}, {.every_k = 5});
  serve::ScServer server({rig.model.get()}, {&faulty}, sc::jetson_nano(),
                         sc::rtx3090_server(),
                         {.batching = {.max_batch_size = 3,
                                       .max_wait_us = 1000}});

  // One worker + one shared lane: requests are popped FIFO, and
  // infer_batch sends messages in batch row order, so wire message i
  // (1-based) belongs to request i-1 whatever batches formed.
  auto run_round = [&](uint64_t seed_base, size_t n, size_t& failed,
                       size_t& survived) {
    std::vector<Tensor> inputs;
    std::vector<std::future<sc::InferenceResult>> futures;
    for (uint64_t i = 0; i < n; ++i) {
      inputs.push_back(rig.input(seed_base + i));
      futures.push_back(server.submit(inputs.back()));
    }
    for (size_t i = 0; i < n; ++i) {
      try {
        const sc::InferenceResult got = futures[i].get();
        const sc::InferenceResult want = ref.infer(inputs[i]);
        for (size_t j = 0; j < want.logits.size(); ++j)
          EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
              << "request " << i << " task " << j << " diverged";
        ++survived;
      } catch (const std::invalid_argument&) {
        ++failed;
      }
    }
  };

  size_t failed = 0, survived = 0;
  run_round(500, 20, failed, survived);
  // Exactly one request poisoned per injected fault, nothing else.
  EXPECT_EQ(static_cast<int64_t>(failed), faulty.faults_injected());
  EXPECT_EQ(failed, 4u);  // messages 5, 10, 15, 20
  EXPECT_EQ(survived, 16u);

  // The server keeps serving after the faults: a second round completes
  // with the same per-fault isolation.
  run_round(800, 10, failed, survived);
  EXPECT_EQ(static_cast<int64_t>(failed), faulty.faults_injected());
  EXPECT_EQ(failed, 6u);  // messages 25, 30 faulted in round two
  EXPECT_EQ(survived, 24u);

  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 24);
  EXPECT_EQ(s.failed, 6);
  EXPECT_EQ(s.rejected, 0);
}

TEST(FaultInject, StreamFaultSettlesEmittedChunksThenPoisonsTheTail) {
  FaultRig rig;
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.ref_model, ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());

  // Second wire message corrupts: chunk 0 must arrive bitwise clean,
  // chunks 1..3 must all carry the error — and exactly once each.
  sc::FaultInjectChannel faulty({.bandwidth_bps = 1e9}, {.every_k = 2});
  serve::ScServer server({rig.model.get()}, {&faulty}, sc::jetson_nano(),
                         sc::rtx3090_server());

  std::vector<Tensor> rows;
  for (uint64_t i = 0; i < 4; ++i) rows.push_back(rig.input(300 + i));
  auto chunks = server.submit_stream(ops::concat_batch(rows));
  ASSERT_EQ(chunks.size(), 4u);

  const sc::InferenceResult got0 = chunks[0].get();
  const sc::InferenceResult want0 = ref.infer(rows[0]);
  for (size_t j = 0; j < want0.logits.size(); ++j)
    EXPECT_TRUE(got0.logits[j].equals(want0.logits[j]))
        << "pre-fault chunk diverged";
  for (size_t i = 1; i < 4; ++i)
    EXPECT_THROW((void)chunks[i].get(), std::invalid_argument)
        << "chunk " << i << " should carry the wire error";

  // Still serviceable: a plain request after the stream fault completes.
  // The wire stage stopped at message 2, so this is message 3 — clean.
  auto fut = server.submit(rig.input(999));
  EXPECT_NO_THROW((void)fut.get());
  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 1);  // the plain request
  EXPECT_EQ(s.failed, 1);     // the stream counts once, as failed
  // Traffic accounting survives the wire fault: the corrupted stream
  // message crossed the link and must be in the tally — the stats match
  // the channel's own byte counter exactly.
  EXPECT_EQ(s.wire_bytes, faulty.total_bytes());
  EXPECT_GT(s.wire_bytes, 0);
}

// ------------------------------------------- whole-batch failure accounting

/// Delivers the @p swap_at-th wire message (1-based) as a validly
/// serialized tensor of a different shape. The CRC passes and decode
/// succeeds, so the per-item error isolation in infer_batch never fires —
/// instead the post-wire sub-batch concat throws, failing the WHOLE batch
/// after every message already crossed the link. This is the shape of
/// failure that used to lose its wire accounting.
class ShapeSwapChannel : public sc::Channel {
 public:
  ShapeSwapChannel(const sc::ChannelConfig& cfg, int64_t swap_at)
      : Channel(cfg), swap_at_(swap_at) {}

  std::vector<uint8_t> transmit(std::vector<uint8_t> message) override {
    std::vector<uint8_t> received = Channel::transmit(std::move(message));
    if (++seen_ == swap_at_)
      return serialize_tensor(Tensor({1, 2, 1, 1}, 0.5f));
    return received;
  }

 private:
  int64_t swap_at_;
  int64_t seen_ = 0;
};

TEST(FaultInject, FailedWholeBatchKeepsItsWireAccounting) {
  // Regression: a whole-batch failure used to record on_batch(size, 0) —
  // the real bytes, retransmits and link time the batch consumed before
  // failing simply vanished from the stats. The server must report the
  // traffic the channel actually carried, failure or not.
  FaultRig rig;
  ShapeSwapChannel swapper({.bandwidth_bps = 1e9}, /*swap_at=*/2);
  serve::ScServer server({rig.model.get()}, {&swapper}, sc::jetson_nano(),
                         sc::rtx3090_server(),
                         {.batching = {.max_batch_size = 2,
                                       .max_wait_us = 50000}});
  // Two requests coalesce into one batch; message 2 decodes to the wrong
  // shape, so the post-wire concat fails both requests at once.
  auto f1 = server.submit(rig.input(400));
  auto f2 = server.submit(rig.input(401));
  EXPECT_THROW((void)f1.get(), std::invalid_argument);
  EXPECT_THROW((void)f2.get(), std::invalid_argument);
  server.shutdown();

  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.failed, 2);
  EXPECT_EQ(s.batches, 1);
  // The channel's own session counters are the ground truth the stats
  // must match exactly — both messages crossed before the batch died.
  EXPECT_EQ(swapper.messages_sent(), 2);
  EXPECT_GT(swapper.total_bytes(), 0);
  EXPECT_EQ(s.wire_bytes, swapper.total_bytes());
  EXPECT_EQ(s.wire_bytes_raw, swapper.total_bytes());  // codec off
  EXPECT_DOUBLE_EQ(s.wire_time_s, swapper.totals().time_s);
  EXPECT_EQ(s.retransmits, swapper.retransmits());
  EXPECT_GT(s.goodput_bytes_s(), 0.0);
}

TEST(FaultInject, PreWireBatchFailureReportsZeroTraffic) {
  // The complementary direction: when coalesced requests disagree on
  // shape, the batch dies in the server's own concat BEFORE infer_batch
  // runs — no message was sent, so the wire tally must stay zero rather
  // than pick up a stale earlier batch's traffic.
  FaultRig rig;
  sc::Channel session({.bandwidth_bps = 1e9});
  serve::ScServer server({rig.model.get()}, {&session}, sc::jetson_nano(),
                         sc::rtx3090_server(),
                         {.batching = {.max_batch_size = 2,
                                       .max_wait_us = 50000}});
  auto f1 = server.submit(rig.input(500));          // [1, 3, 16, 16]
  auto f2 = server.submit(Tensor({1, 3, 8, 8}, 0.1f));  // mismatched H, W
  EXPECT_THROW((void)f1.get(), std::invalid_argument);
  EXPECT_THROW((void)f2.get(), std::invalid_argument);
  server.shutdown();

  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.failed, 2);
  EXPECT_EQ(s.batches, 1);
  EXPECT_EQ(session.messages_sent(), 0);
  EXPECT_EQ(s.wire_bytes, 0);
  EXPECT_DOUBLE_EQ(s.wire_time_s, 0.0);
}

// ------------------------------------------------------ lossy-link drill

TEST(FaultInject, LossyLinkDrillSettlesEveryRequestOnceAndBitwise) {
  // The full wire stack under fire: entropy-coded frames over a
  // packetised link dropping 5% of packets, int8 bottleneck. The bounded
  // retransmit loop repairs the loss below the quantise boundary, so
  // every request must settle exactly once and every survivor must be
  // bitwise identical to a sequential infer() over a clean channel.
  FaultRig rig;
  const serve::ServeConfig cfg{
      .batching = {.max_batch_size = 4, .max_wait_us = 1000},
      .deployment = {.encoding = sc::ZbEncoding::kInt8,
                     .codec = sc::WireCodec::kEntropy}};
  sc::Channel clean({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.ref_model, clean, sc::jetson_nano(),
                       sc::rtx3090_server(), cfg.deployment);

  sc::Channel lossy({.bandwidth_bps = 1e9,
                     .base_latency_s = 0.0001,
                     .seed = 77,
                     .link = {.mtu_bytes = 96,
                              .loss_prob = 0.05f,
                              .jitter_s = 0.0005,
                              .max_retransmits = 8}});
  // Session injection: the server wires requests through `lossy` itself,
  // so its packet/retransmit counters are the drill's ground truth.
  serve::ScServer server({rig.model.get()}, {&lossy}, sc::jetson_nano(),
                         sc::rtx3090_server(), cfg);

  constexpr size_t kN = 24;
  std::vector<Tensor> inputs;
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < kN; ++i) {
    inputs.push_back(rig.input(700 + i));
    futures.push_back(server.submit(inputs.back()));
  }
  size_t settled = 0, survived = 0;
  int64_t wire = 0, wire_raw = 0;
  for (size_t i = 0; i < kN; ++i) {
    try {
      const sc::InferenceResult got = futures[i].get();
      ++settled;
      ++survived;
      const sc::InferenceResult want = ref.infer(inputs[i]);
      for (size_t j = 0; j < want.logits.size(); ++j)
        EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
            << "request " << i << " diverged under the lossy link";
      wire += got.latency.wire.bytes;
      wire_raw += got.latency.wire.bytes_raw;
    } catch (const std::invalid_argument&) {
      ++settled;  // an exhausted retransmit budget is a typed wire error
    }
  }
  // Exactly-once settlement: every future resolved, with a value or a
  // typed error, never neither and never twice (get() throws
  // future_error on a double read, which would fail the loop above).
  EXPECT_EQ(settled, kN);
  // 5% loss under an 8-retry budget: statistically everything survives
  // (P[packet failure] ~ 0.05^9), and this schedule is deterministic.
  EXPECT_EQ(survived, kN);
  // The codec's size guarantee held on every frame (this rig's
  // hard-swish bottleneck is dense, so the interesting bound is the
  // never-expands one; the compression ratio itself is pinned by
  // test_wire_codec and the bench's sparse-ReLU wire scenario).
  EXPECT_LE(wire, wire_raw + static_cast<int64_t>(kN) * sc::kFrameHeaderBytes);
  EXPECT_GT(wire_raw, 0);

  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.completed, static_cast<int64_t>(kN));
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.wire_bytes, wire);
  EXPECT_EQ(s.wire_bytes_raw, wire_raw);
  EXPECT_EQ(s.retransmits, lossy.retransmits());
  EXPECT_GT(s.retransmits, 0);  // the drill actually dropped packets
  // The FEC/erasure counters plumb through identically — no FEC is
  // configured here and every loss was repaired within budget, so both
  // sides must agree at zero (the non-zero paths are pinned by test_fec
  // and the FEC serve drill below).
  EXPECT_EQ(s.fec_repaired, lossy.fec_repaired());
  EXPECT_EQ(s.undelivered, lossy.undelivered());
  EXPECT_EQ(s.undelivered, 0);
  // Link-time accounting feeds goodput, and the sender window survives
  // the snapshot.
  EXPECT_GT(s.wire_time_s, 0.0);
  EXPECT_GT(s.goodput_bytes_s(), 0.0);
  EXPECT_GE(s.link_window, 1.0);
}

TEST(FaultInject, FecServeDrillRepairsLossWithZeroRetransmits) {
  // Zero-RTT serving drill: the deterministic schedule erases one packet
  // per FEC frame group, so the server's whole run must complete with
  // retransmits == 0 while fec_repaired counts every rebuilt packet —
  // loss absorbed without a single extra round trip, logits bitwise.
  FaultRig rig;
  const serve::ServeConfig cfg{
      .batching = {.max_batch_size = 4, .max_wait_us = 1000},
      .deployment = {.encoding = sc::ZbEncoding::kInt8,
                     .codec = sc::WireCodec::kEntropy}};
  sc::Channel clean({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.ref_model, clean, sc::jetson_nano(),
                       sc::rtx3090_server(), cfg.deployment);

  // Groups are 8 data + 1 parity = 9 packets on the wire; dropping every
  // 11th packet (> group span) can never erase two packets of one group,
  // so every loss is within the parity budget wherever message
  // boundaries land.
  sc::Channel lossy({.bandwidth_bps = 1e9,
                     .base_latency_s = 0.0001,
                     .seed = 77,
                     .link = {.mtu_bytes = 96,
                              .max_retransmits = 8,
                              .drop_every_k = 11,
                              .fec_data = 8,
                              .fec_parity = 1}});
  serve::ScServer server({rig.model.get()}, {&lossy}, sc::jetson_nano(),
                         sc::rtx3090_server(), cfg);

  constexpr size_t kN = 16;
  std::vector<Tensor> inputs;
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < kN; ++i) {
    inputs.push_back(rig.input(900 + i));
    futures.push_back(server.submit(inputs.back()));
  }
  for (size_t i = 0; i < kN; ++i) {
    const sc::InferenceResult got = futures[i].get();
    const sc::InferenceResult want = ref.infer(inputs[i]);
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "request " << i << " diverged under FEC repair";
  }
  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.completed, static_cast<int64_t>(kN));
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.retransmits, 0);  // every erasure repaired zero-RTT
  EXPECT_GT(s.fec_repaired, 0);
  EXPECT_EQ(s.fec_repaired, lossy.fec_repaired());
  EXPECT_EQ(s.undelivered, 0);
}

}  // namespace
}  // namespace mtlsplit
