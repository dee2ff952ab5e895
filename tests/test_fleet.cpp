// Cluster-scale serving (DESIGN.md §12): SWIM-style membership over the
// lossy link model, rendezvous placement of tenants onto live nodes, and
// replica rebuild with exactly-once settlement across a node death.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fleet/fleet.hpp"
#include "mtl/model_factory.hpp"
#include "sc/ping.hpp"
#include "sc/wire_codec.hpp"

namespace mtlsplit {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ membership

TEST(Membership, PrecedenceSuppressesStaleGossip) {
  fleet::MembershipTable t(2);
  EXPECT_EQ(t.get(0).state, fleet::NodeState::kAlive);
  EXPECT_EQ(t.get(0).incarnation, 0u);

  // Suspect at the current incarnation beats Alive at the same one...
  EXPECT_TRUE(t.apply(0, fleet::NodeState::kSuspect, 0));
  EXPECT_EQ(t.get(0).state, fleet::NodeState::kSuspect);
  // ...but an equal-incarnation Alive does NOT clear a suspicion — that
  // is precisely the stale gossip SWIM suppresses.
  EXPECT_FALSE(t.apply(0, fleet::NodeState::kAlive, 0));
  EXPECT_EQ(t.get(0).state, fleet::NodeState::kSuspect);

  // Refutation: the suspected node bumps its incarnation; higher wins.
  EXPECT_TRUE(t.apply(0, fleet::NodeState::kAlive, 1));
  EXPECT_EQ(t.get(0).state, fleet::NodeState::kAlive);
  EXPECT_EQ(t.get(0).incarnation, 1u);
  // Old-incarnation suspicion arriving late is stale — suppressed.
  EXPECT_FALSE(t.apply(0, fleet::NodeState::kSuspect, 0));
  EXPECT_EQ(t.get(0).state, fleet::NodeState::kAlive);

  // Dead is terminal: nothing overrides it, whatever the incarnation.
  EXPECT_TRUE(t.apply(0, fleet::NodeState::kDead, 1));
  EXPECT_FALSE(t.apply(0, fleet::NodeState::kAlive, 99));
  EXPECT_FALSE(t.apply(0, fleet::NodeState::kSuspect, 99));
  EXPECT_EQ(t.get(0).state, fleet::NodeState::kDead);

  // live() excludes exactly the dead node.
  const std::vector<size_t> live = t.live();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], 1u);
}

// ------------------------------------------------------------ ping codec

TEST(PingCodec, RoundTripsBothFrameTypes) {
  sc::PingFrame ping;
  ping.type = sc::PingType::kPing;
  ping.seq = 0xdeadbeef;
  ping.node = 7;
  ping.incarnation = sc::kNotSuspected;
  const auto wire = sc::encode_ping(ping);
  const auto got = sc::decode_ping(wire);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, sc::PingType::kPing);
  EXPECT_EQ(got->seq, 0xdeadbeefu);
  EXPECT_EQ(got->node, 7u);
  EXPECT_EQ(got->incarnation, sc::kNotSuspected);

  sc::PingFrame ack;
  ack.type = sc::PingType::kAck;
  ack.seq = 1;
  ack.node = 0;
  ack.incarnation = 41;
  const auto got_ack = sc::decode_ping(sc::encode_ping(ack));
  ASSERT_TRUE(got_ack.has_value());
  EXPECT_EQ(got_ack->type, sc::PingType::kAck);
  EXPECT_EQ(got_ack->incarnation, 41u);
}

TEST(PingCodec, CorruptionTruncationAndForeignPayloadsRejected) {
  auto wire = sc::encode_ping({});
  // Single flipped byte -> CRC failure -> nullopt (a missed ack, never
  // an exception: loss is normal on this channel).
  for (size_t i = 0; i < wire.size(); ++i) {
    auto bad = wire;
    bad[i] ^= 0x40;
    EXPECT_FALSE(sc::decode_ping(bad).has_value()) << "byte " << i;
  }
  // Truncation at every length.
  for (size_t len = 0; len < wire.size(); ++len)
    EXPECT_FALSE(
        sc::decode_ping({wire.begin(), wire.begin() + len}).has_value());
  // A CRC-valid frame that is not a ping payload (wrong size).
  const std::vector<uint8_t> foreign_raw(7, 0xab);
  EXPECT_FALSE(
      sc::decode_ping(sc::encode_frame(foreign_raw, sc::WireCodec::kRaw))
          .has_value());
  // A CRC-valid 21-byte payload with an unknown type tag.
  std::vector<uint8_t> bad_type(21, 0);
  bad_type[0] = 9;
  EXPECT_FALSE(
      sc::decode_ping(sc::encode_frame(bad_type, sc::WireCodec::kRaw))
          .has_value());
}

// ------------------------------------------------------------ placement

TEST(Rendezvous, DeterministicAndOnlyDeadNodesTenantsMove) {
  const std::vector<size_t> all = {0, 1, 2};
  const std::vector<size_t> without_1 = {0, 2};
  constexpr uint64_t kClients = 600;

  size_t moved = 0, on_node1 = 0;
  std::vector<size_t> hist(3, 0);
  for (uint64_t c = 0; c < kClients; ++c) {
    const size_t before = fleet::rendezvous_pick(c, all);
    EXPECT_EQ(fleet::rendezvous_pick(c, all), before) << "non-deterministic";
    ++hist[before];
    const size_t after = fleet::rendezvous_pick(c, without_1);
    if (before == 1) {
      ++on_node1;
      EXPECT_NE(after, 1u);
    } else {
      // The defining rendezvous property: removing node 1 moves ONLY the
      // tenants that lived on node 1.
      EXPECT_EQ(after, before) << "client " << c << " moved needlessly";
    }
    if (after != before) ++moved;
  }
  EXPECT_EQ(moved, on_node1);
  // The load is roughly balanced (each node ~200 of 600 ± a wide margin).
  for (size_t k = 0; k < 3; ++k)
    EXPECT_GT(hist[k], kClients / 6) << "node " << k << " nearly unloaded";
  EXPECT_THROW(fleet::rendezvous_pick(1, {}), std::invalid_argument);
}

// ------------------------------------------------------------- fleet e2e

struct FleetRig {
  std::unique_ptr<core::MtlSplitModel> prototype;

  FleetRig() {
    Rng rng(1);
    prototype = core::make_mtl_model(factory_cfg(), tasks(), rng);
    prototype->set_training(false);
  }

  static core::ModelFactoryConfig factory_cfg() {
    core::ModelFactoryConfig cfg;
    cfg.backbone = models::BackboneKind::kMobileNetV3;
    cfg.image_shape = {3, 16, 16};
    return cfg;
  }
  static std::vector<data::TaskSpec> tasks() { return {{"a", 4}, {"b", 3}}; }

  static std::unique_ptr<core::MtlSplitModel> mint() {
    Rng rng(999);
    return core::make_mtl_model(factory_cfg(), tasks(), rng);
  }

  fleet::FleetConfig fleet_cfg(size_t nodes) const {
    fleet::FleetConfig cfg;
    cfg.nodes = nodes;
    cfg.replicas_per_node = 1;
    cfg.make_replica = &FleetRig::mint;
    cfg.serve.batching = {.max_batch_size = 4, .max_wait_us = 500};
    cfg.data_link = {.bandwidth_bps = 1e9};
    cfg.control_link = {.bandwidth_bps = 1e9};
    cfg.swim.ping_interval_us = 1000;
    cfg.swim.suspect_after = 1;
    cfg.swim.dead_after = 1;
    return cfg;
  }

  Tensor input(uint64_t seed) const {
    Rng rng(seed);
    Tensor t({1, 3, 16, 16});
    rng.fill_uniform(t, 0.0f, 1.0f);
    return t;
  }

  /// Sequential single-model reference on a clean channel.
  sc::InferenceResult reference(const Tensor& x) {
    sc::Channel ch({.bandwidth_bps = 1e9});
    sc::ScDeployment ref(*prototype, ch, sc::jetson_nano(),
                         sc::rtx3090_server());
    return ref.infer(x);
  }
};

/// Waits until node @p k is Dead, failing the test after @p budget.
void wait_dead(fleet::FleetRouter& router, size_t k,
               std::chrono::milliseconds budget) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (router.node_state(k) != fleet::NodeState::kDead) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "node " << k << " not declared dead within the SWIM budget";
    std::this_thread::sleep_for(1ms);
  }
}

TEST(FleetE2E, ServesBitwiseIdenticalToSequentialInfer) {
  FleetRig rig;
  fleet::FleetRouter router(*rig.prototype, sc::jetson_nano(),
                            sc::rtx3090_server(), rig.fleet_cfg(3));
  EXPECT_EQ(router.num_nodes(), 3u);
  EXPECT_EQ(router.live_nodes().size(), 3u);

  std::vector<Tensor> inputs;
  std::vector<std::future<sc::InferenceResult>> futs;
  for (uint64_t c = 0; c < 24; ++c) {
    inputs.push_back(rig.input(100 + c));
    futs.push_back(
        router.submit(inputs[c].clone(), {.base = {.client_id = c}}));
  }
  for (size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(30s), std::future_status::ready);
    const sc::InferenceResult got = futs[i].get();
    const sc::InferenceResult want = rig.reference(inputs[i]);
    ASSERT_EQ(got.logits.size(), want.logits.size());
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "client " << i << " task " << j << " not bitwise";
  }
  router.shutdown();
  const fleet::FleetStats s = router.stats();
  EXPECT_EQ(s.submitted, 24);
  EXPECT_EQ(s.settled_value, 24);
  EXPECT_EQ(s.settled_error, 0);
  EXPECT_EQ(s.deaths, 0);
  EXPECT_EQ(s.failovers, 0);
  EXPECT_GT(s.acks_received, 0);
  // The telemetry tree carries the per-node subtrees.
  EXPECT_GE(router.telemetry_tree().gauge_value("fleet/node0/replicas"), 1.0);
  EXPECT_EQ(router.telemetry_tree().gauge_value("fleet/node1/state"), 0.0);
  EXPECT_NE(router.telemetry_json().find("\"fleet\""), std::string::npos);
}

TEST(FleetChaos, KillNodeEveryFutureSettlesOnceAndReplicasRebuild) {
  FleetRig rig;
  fleet::FleetRouter router(*rig.prototype, sc::jetson_nano(),
                            sc::rtx3090_server(), rig.fleet_cfg(3));
  const size_t victim = router.route(/*client_id=*/0);

  // Wave A: in-flight traffic on every node, some of it on the victim.
  std::vector<Tensor> inputs;
  std::vector<std::future<sc::InferenceResult>> futs;
  uint64_t next_client = 0;
  for (; next_client < 24; ++next_client) {
    inputs.push_back(rig.input(300 + next_client));
    futs.push_back(router.submit(inputs.back().clone(),
                                 {.base = {.client_id = next_client}}));
  }
  // Kill at peak: whatever the victim holds is now black-holed.
  router.kill_node(victim);
  // Wave B: submissions racing the failure detector. Some still land on
  // the victim (it is not yet declared dead) and must fail over too.
  for (; next_client < 36; ++next_client) {
    inputs.push_back(rig.input(300 + next_client));
    futs.push_back(router.submit(inputs.back().clone(),
                                 {.base = {.client_id = next_client}}));
  }
  wait_dead(router, victim, 5000ms);
  EXPECT_EQ(router.live_nodes().size(), 2u);
  // Wave C: post-failover traffic routes cleanly onto the survivors.
  for (; next_client < 48; ++next_client) {
    EXPECT_NE(router.route(next_client), victim);
    inputs.push_back(rig.input(300 + next_client));
    futs.push_back(router.submit(inputs.back().clone(),
                                 {.base = {.client_id = next_client}}));
  }

  // Exactly-once, all values: every request is idempotent with failover
  // budget, the links are clean and there are no deadlines — a lost or
  // double settlement is the only way this can fail.
  for (size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(30s), std::future_status::ready)
        << "future " << i << " lost across the failover";
    const sc::InferenceResult got = futs[i].get();  // throws on error
    const sc::InferenceResult want = rig.reference(inputs[i]);
    ASSERT_EQ(got.logits.size(), want.logits.size());
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "request " << i << " not bitwise across failover";
  }

  // Rebuild: the victim's replica was re-minted on the survivors — total
  // live capacity is back to the pre-kill 3.
  size_t live_replicas = 0;
  for (size_t k : router.live_nodes()) live_replicas += router.node_replicas(k);
  EXPECT_EQ(live_replicas, 3u);

  router.shutdown();
  const fleet::FleetStats s = router.stats();
  EXPECT_EQ(s.deaths, 1);
  EXPECT_EQ(s.replicas_reminted, 1);
  EXPECT_EQ(s.submitted, 48);
  EXPECT_EQ(s.settled_value, 48);
  EXPECT_EQ(s.settled_error, 0);
  EXPECT_EQ(router.node_state(victim), fleet::NodeState::kDead);
}

TEST(FleetChaos, NonIdempotentRequestGetsTypedNodeFailedError) {
  FleetRig rig;
  fleet::FleetRouter router(*rig.prototype, sc::jetson_nano(),
                            sc::rtx3090_server(), rig.fleet_cfg(2));
  const size_t victim = router.route(0);
  uint64_t victim_client = 0;
  while (router.route(victim_client) != victim) ++victim_client;
  uint64_t other_client = 0;
  while (router.route(other_client) == victim) ++other_client;

  // Kill first, submit second: the requests are guaranteed black-holed,
  // so their settlement is decided entirely by the failover policy.
  router.kill_node(victim);
  // Shared, so this thread keeps a reference to the stored exception
  // while the catch block below reads it. With a plain future, get()
  // drops this thread's reference and the prober thread may free the
  // exception through libstdc++'s refcount, whose atomics TSan does not
  // see: it then reports the read as a race.
  auto f_nonidem =
      router.submit(rig.input(1), {.base = {.client_id = victim_client},
                                   .idempotent = false})
          .share();
  auto f_idem = router.submit(rig.input(2), {.base = {.client_id = victim_client},
                                             .idempotent = true});
  auto f_other = router.submit(rig.input(3), {.base = {.client_id = other_client}});
  wait_dead(router, victim, 5000ms);

  // Non-idempotent: the fleet cannot know whether the dead node applied
  // the request — it must surface the typed error, never retry.
  ASSERT_EQ(f_nonidem.wait_for(30s), std::future_status::ready);
  try {
    (void)f_nonidem.get();
    FAIL() << "non-idempotent request on a dead node settled with a value";
  } catch (const fleet::NodeFailedError& e) {
    EXPECT_EQ(e.node(), victim);
  }
  // Idempotent sibling fails over transparently.
  ASSERT_EQ(f_idem.wait_for(30s), std::future_status::ready);
  EXPECT_NO_THROW((void)f_idem.get());
  // A tenant of the surviving node never notices.
  ASSERT_EQ(f_other.wait_for(30s), std::future_status::ready);
  EXPECT_NO_THROW((void)f_other.get());
  router.shutdown();
  EXPECT_EQ(router.stats().settled_error, 1);
}

// ------------------------------------------------------------ SWIM layer

TEST(FleetSwim, TotalProbeLossDeclaresDeadAndFailsRemainingWork) {
  // One node behind a fully lossy control link: indistinguishable from a
  // crash, so SWIM must walk it alive -> suspect -> dead within the
  // configured miss budget and fail the work that cannot move anywhere.
  FleetRig rig;
  fleet::FleetConfig cfg = rig.fleet_cfg(1);
  cfg.control_link.link = {.mtu_bytes = 64,
                           .loss_prob = 1.0f,
                           .max_retransmits = 0};
  cfg.swim.suspect_after = 2;
  cfg.swim.dead_after = 2;
  cfg.max_failovers = 2;
  fleet::FleetRouter router(*rig.prototype, sc::jetson_nano(),
                            sc::rtx3090_server(), cfg);
  wait_dead(router, 0, 5000ms);
  EXPECT_TRUE(router.live_nodes().empty());
  EXPECT_THROW((void)router.submit(rig.input(5), {}),
               fleet::NodeFailedError);
  router.shutdown();
  const fleet::FleetStats s = router.stats();
  EXPECT_EQ(s.deaths, 1);
  EXPECT_EQ(s.acks_received, 0);
  EXPECT_GE(s.probes_sent, 4);  // at least the miss budget
}

TEST(FleetSwim, SuspectedAliveNodeRefutesByBumpingItsIncarnation) {
  // drop_every_k=3 with a 2-packet probe (ping+ack) erases every third
  // packet deterministically: rounds alternate hit / miss, so the node
  // keeps getting suspected (suspect_after=1) and keeps refuting on the
  // next clean round trip. The incarnation must climb, and the node must
  // never be declared dead (misses never reach suspect_after+dead_after).
  FleetRig rig;
  fleet::FleetConfig cfg = rig.fleet_cfg(1);
  cfg.control_link.link = {.mtu_bytes = 64,
                           .max_retransmits = 0,
                           .drop_every_k = 3};
  cfg.swim.suspect_after = 1;
  cfg.swim.dead_after = 10;
  fleet::FleetRouter router(*rig.prototype, sc::jetson_nano(),
                            sc::rtx3090_server(), cfg);
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (router.incarnation(0) < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "no refutation observed";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_NE(router.node_state(0), fleet::NodeState::kDead);
  // Still fully serviceable while flapping between alive and suspect.
  auto f = router.submit(rig.input(7), {});
  ASSERT_EQ(f.wait_for(30s), std::future_status::ready);
  EXPECT_NO_THROW((void)f.get());
  router.shutdown();
  EXPECT_EQ(router.stats().deaths, 0);
}

}  // namespace
}  // namespace mtlsplit
