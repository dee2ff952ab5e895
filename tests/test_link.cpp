// Packetised lossy-link model (sc/link.hpp + Channel, DESIGN.md §9):
// deterministic loss/jitter schedules per seed, independently drifting
// fork() sessions, exactly-once retransmit repair, monotone modelled
// time, and the Channel copy-semantics regression (a wire session must
// never be aliased by a copy).
#include <gtest/gtest.h>

#include <type_traits>

#include "sc/channel.hpp"
#include "sc/wire_codec.hpp"
#include "tensor/serialize.hpp"

namespace mtlsplit {
namespace {

std::vector<uint8_t> test_message(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> m(n);
  for (auto& b : m) b = static_cast<uint8_t>(rng.randint(0, 255));
  return m;
}

// --------------------------------------------------- copy-semantics fix

// Channel owns RNG + counter state that transmit() mutates; a copy would
// alias a wire session (e.g. a minted server replica replaying another
// worker's corruption stream). The type must stay movable (fork() and
// container storage) but never copyable.
static_assert(!std::is_copy_constructible_v<sc::Channel>,
              "Channel copies would alias wire-session state");
static_assert(!std::is_copy_assignable_v<sc::Channel>,
              "Channel copies would alias wire-session state");
static_assert(std::is_move_constructible_v<sc::Channel>);
static_assert(std::is_move_assignable_v<sc::Channel>);
static_assert(!std::is_copy_constructible_v<sc::FaultInjectChannel>);

TEST(LinkChannel, ForkedSessionsNeverAliasState) {
  // Replica-minting pattern: sessions derived from one base must carry
  // their own counters and RNG streams.
  sc::Channel base({.bandwidth_bps = 1e9,
                    .seed = 3,
                    .link = {.mtu_bytes = 64, .loss_prob = 0.3f}});
  sc::Channel a = base.fork(0);
  sc::Channel b = base.fork(1);
  (void)a.transmit(test_message(1000, 1));
  EXPECT_EQ(a.messages_sent(), 1);
  EXPECT_EQ(b.messages_sent(), 0);  // b's counters untouched by a's wire
  EXPECT_EQ(base.messages_sent(), 0);
  (void)b.transmit(test_message(1000, 1));
  // Different sessions, different loss schedules: the modelled times of
  // the identical message almost surely differ (retransmit counts drew
  // from decorrelated streams). Equality here would mean aliased RNGs.
  EXPECT_NE(a.retransmits(), b.retransmits());
}

// ----------------------------------------------------------- determinism

TEST(LinkChannel, LossAndJitterAreDeterministicGivenSeed) {
  const sc::ChannelConfig cfg{.bandwidth_bps = 1e8,
                              .base_latency_s = 0.001,
                              .seed = 42,
                              .link = {.mtu_bytes = 100,
                                       .loss_prob = 0.2f,
                                       .corrupt_prob = 0.05f,
                                       .jitter_s = 0.002,
                                       .max_retransmits = 6}};
  sc::Channel x(cfg), y(cfg);
  for (uint64_t i = 0; i < 20; ++i) {
    const auto msg = test_message(950, i);
    EXPECT_EQ(x.transmit(msg), y.transmit(msg)) << "message " << i;
    EXPECT_EQ(x.last_message(), y.last_message());
  }
  EXPECT_EQ(x.totals(), y.totals());
  EXPECT_GT(x.retransmits(), 0);  // 20% loss over 200 packets must bite
  EXPECT_EQ(x.packets_sent(), 20 * 10);
}

TEST(LinkChannel, ForkSessionsDriftIndependentlyButReproducibly) {
  sc::Channel base({.bandwidth_bps = 1e8,
                    .seed = 7,
                    .link = {.mtu_bytes = 50, .loss_prob = 0.25f,
                             .jitter_s = 0.001}});
  sc::Channel s1 = base.fork(1);
  sc::Channel s2 = base.fork(2);
  sc::Channel s1_again = base.fork(1);
  double t1 = 0.0, t2 = 0.0, t1_again = 0.0;
  for (uint64_t i = 0; i < 10; ++i) {
    const auto msg = test_message(600, 100 + i);
    (void)s1.transmit(msg);
    (void)s2.transmit(msg);
    (void)s1_again.transmit(msg);
    t1 += s1.last_message().time_s;
    t2 += s2.last_message().time_s;
    t1_again += s1_again.last_message().time_s;
  }
  EXPECT_DOUBLE_EQ(t1, t1_again);  // same session id -> same schedule
  EXPECT_EQ(s1.retransmits(), s1_again.retransmits());
  EXPECT_NE(t1, t2);  // different session ids -> decorrelated streams
}

// ------------------------------------------------------------ retransmit

TEST(LinkChannel, RetransmitRepairsKthPacketLossExactlyOnce) {
  // Deterministic drill: the first attempt of every 3rd packet is
  // dropped, no random loss. A 10-packet message must arrive bitwise
  // intact with exactly ceil-free 3 retransmissions (packets 3, 6, 9) —
  // repaired exactly once each, not re-sent again.
  sc::Channel ch({.bandwidth_bps = 1e9,
                  .base_latency_s = 0.0001,
                  .link = {.mtu_bytes = 100, .drop_every_k = 3}});
  const auto msg = test_message(1000, 5);
  const auto received = ch.transmit(msg);
  EXPECT_EQ(received, msg);  // loss is repaired below the payload
  EXPECT_EQ(ch.packets_sent(), 10);
  EXPECT_EQ(ch.retransmits(), 3);
  EXPECT_EQ(ch.last_message().retransmits, 3);

  // The packet counter is a session stream: the next message continues
  // it (packets 11..20 -> seq 12, 15, 18 faulted).
  (void)ch.transmit(msg);
  EXPECT_EQ(ch.retransmits(), 6);
}

TEST(LinkChannel, ExhaustedBudgetSurfacesAsTypedDecodeFailure) {
  // Every packet's first attempt drops and there is no retransmit
  // budget: the link delivers erasures, which the frame CRC above turns
  // into the typed wire error — never a silent wrong tensor.
  sc::Channel ch({.bandwidth_bps = 1e9,
                  .link = {.mtu_bytes = 64,
                           .max_retransmits = 0,
                           .drop_every_k = 1}});
  Tensor t({64});
  Rng rng(3);
  rng.fill_normal(t, 1.0f, 1.0f);
  const auto frame = sc::encode_frame(serialize_tensor(t),
                                      sc::WireCodec::kEntropy);
  const auto received = ch.transmit(frame);
  EXPECT_NE(received, frame);
  EXPECT_THROW((void)sc::decode_frame(received), sc::WireCodecError);
  // Same for an unframed tensor message: its own CRC refuses delivery.
  const auto received2 = ch.transmit(serialize_tensor(t));
  EXPECT_THROW((void)deserialize_tensor(received2), std::invalid_argument);
}

// -------------------------------------------------------- modelled time

TEST(LinkChannel, ModelledTimeIsMonotoneInBytes) {
  sc::Channel ch({.bandwidth_bps = 1e8,
                  .base_latency_s = 0.0005,
                  .link = {.mtu_bytes = 200}});
  double prev = 0.0;
  for (size_t n : {0u, 1u, 150u, 200u, 201u, 1000u, 5000u, 20000u}) {
    (void)ch.transmit(std::vector<uint8_t>(n, 1));
    EXPECT_GE(ch.last_message().time_s, prev) << "bytes " << n;
    prev = ch.last_message().time_s;
  }
}

TEST(LinkChannel, ModelledTimeIsMonotoneInLossRate) {
  // More loss can only add retransmit time. Compared over many messages
  // so the deterministic RNG streams cannot flip the ordering.
  double prev_time = -1.0;
  int64_t prev_rt = -1;
  for (float loss : {0.0f, 0.05f, 0.2f, 0.5f}) {
    sc::Channel ch({.bandwidth_bps = 1e8,
                    .base_latency_s = 0.0002,
                    .seed = 9,
                    .link = {.mtu_bytes = 100, .loss_prob = loss}});
    for (uint64_t i = 0; i < 100; ++i)
      (void)ch.transmit(test_message(1000, i));
    EXPECT_GT(ch.totals().time_s, prev_time) << "loss " << loss;
    EXPECT_GT(ch.retransmits(), prev_rt) << "loss " << loss;
    prev_time = ch.totals().time_s;
    prev_rt = ch.retransmits();
  }
}

TEST(LinkChannel, PacketisationAccountsOverheadAndWindowRounds) {
  // 1000 bytes over MTU 100 = 10 packets. With the default AIMD window
  // (init 4, +1 per clean round) the bursts are 4, 5, 1 — three round
  // trips — and every packet pays its 32-byte header once. The time must
  // match that closed form exactly when nothing is random, and still
  // exceed the analytic whole-message transfer_time.
  sc::Channel ch({.bandwidth_bps = 1e8,
                  .base_latency_s = 0.001,
                  .link = {.mtu_bytes = 100}});
  (void)ch.transmit(std::vector<uint8_t>(1000, 7));
  const double per_byte = 8.0 / 1e8;
  const double want = 3 * (2 * 0.001) + 10 * (100 + 32) * per_byte;
  EXPECT_NEAR(ch.last_message().time_s, want, 1e-12);
  EXPECT_GT(ch.last_message().time_s, ch.transfer_time(1000));
  // Three clean rounds opened the window additively: 4 -> 7.
  EXPECT_DOUBLE_EQ(ch.window(), 7.0);
  EXPECT_DOUBLE_EQ(ch.last_message().time_s *
                       ch.last_message().goodput_bytes_s(),
                   1000.0);
}

TEST(LinkChannel, WindowBacksOffOnLossAndRecovers) {
  // Deterministic loss (first attempt of every 3rd packet) forces a
  // multiplicative backoff in every round that saw a drop; clean rounds
  // then reopen the window additively. The same traffic over a clean
  // link must end with a wider window and less modelled time.
  const sc::ChannelConfig lossy_cfg{.bandwidth_bps = 1e8,
                                    .base_latency_s = 0.001,
                                    .link = {.mtu_bytes = 100,
                                             .drop_every_k = 3}};
  sc::ChannelConfig clean_cfg = lossy_cfg;
  clean_cfg.link.drop_every_k = 0;
  sc::Channel lossy(lossy_cfg), clean(clean_cfg);
  const auto msg = test_message(5000, 21);  // 50 packets
  (void)lossy.transmit(msg);
  (void)clean.transmit(msg);
  EXPECT_GT(lossy.retransmits(), 0);
  EXPECT_LT(lossy.window(), clean.window());
  EXPECT_GT(lossy.last_message().time_s, clean.last_message().time_s);
  EXPECT_LT(lossy.last_message().goodput_bytes_s(),
            clean.last_message().goodput_bytes_s());
}

// ------------------------------------------------- undelivered plumbing

TEST(LinkChannel, UndeliveredCounterMatchesInjectedDropSchedule) {
  // Satellite regression: erased packets used to be tallied inside
  // link_deliver and then dropped on the floor by Channel — only
  // observable as a downstream CRC failure. With no retransmit budget
  // and the deterministic schedule dropping the first attempt of every
  // 4th packet, a 12-packet message must surface exactly 3 erasures
  // through the channel's own counter.
  sc::Channel ch({.bandwidth_bps = 1e9,
                  .link = {.mtu_bytes = 100,
                           .max_retransmits = 0,
                           .drop_every_k = 4}});
  const auto msg = test_message(1200, 8);
  const auto received = ch.transmit(msg);
  EXPECT_EQ(ch.packets_sent(), 12);
  EXPECT_EQ(ch.undelivered(), 3);  // packets 4, 8, 12
  EXPECT_EQ(ch.last_message().undelivered, 3);
  EXPECT_EQ(ch.retransmits(), 0);  // no budget, so erasure — not retry
  EXPECT_NE(received, msg);        // the zeroed spans are visible...
  // ...and the next message continues the session schedule: packets
  // 13..24 drop at sequence 16, 20, 24.
  (void)ch.transmit(msg);
  EXPECT_EQ(ch.undelivered(), 6);
  // A CRC-framed payload over the same schedule fails typed, never
  // silently (erasures always surface).
  Tensor t({256});
  Rng rng(4);
  rng.fill_normal(t, 0.0f, 1.0f);
  const auto received3 = ch.transmit(serialize_tensor(t));
  EXPECT_THROW((void)deserialize_tensor(received3), std::invalid_argument);
}

// ------------------------------------------- double-precision jitter

TEST(LinkChannel, JitterDrawsKeepDoublePrecision) {
  // Satellite regression: the jitter draw used to narrow through
  // Rng::uniform(float, float), quantising modelled time to 24-bit
  // mantissas. The double path must produce draws a float cannot
  // represent, and two seeds' modelled times must differ at double
  // granularity.
  Rng rng(11);
  bool beyond_float = false;
  for (int i = 0; i < 64 && !beyond_float; ++i) {
    const double v = rng.uniform_double(0.0, 1.0);
    beyond_float = v != static_cast<double>(static_cast<float>(v));
  }
  EXPECT_TRUE(beyond_float)
      << "uniform_double draws collapse to float values";

  const sc::ChannelConfig base{.bandwidth_bps = 1e8,
                               .base_latency_s = 0.0001,
                               .link = {.mtu_bytes = 100,
                                        .jitter_s = 0.0005}};
  sc::ChannelConfig other = base;
  other.seed = base.seed + 1;
  sc::Channel a(base), b(other);
  const auto msg = test_message(1000, 2);
  (void)a.transmit(msg);
  (void)b.transmit(msg);
  EXPECT_NE(a.last_message().time_s, b.last_message().time_s);
  // The jitter component carries double-mantissa bits: subtracting the
  // deterministic (jitter-free) time leaves a residue no float-grained
  // draw sum would produce.
  sc::ChannelConfig quiet = base;
  quiet.link.jitter_s = 0.0;
  sc::Channel q(quiet);
  (void)q.transmit(msg);
  const double jitter_sum = a.last_message().time_s - q.last_message().time_s;
  EXPECT_GT(jitter_sum, 0.0);
  EXPECT_NE(jitter_sum,
            static_cast<double>(static_cast<float>(jitter_sum)));
}

TEST(LinkChannel, DisabledLinkKeepsLegacySemantics) {
  // mtu_bytes == 0: byte counts, analytic time, and payload identity are
  // exactly the pre-link behaviour.
  sc::Channel ch({.bandwidth_bps = 1e6, .base_latency_s = 0.01});
  const auto msg = test_message(1234, 1);
  EXPECT_EQ(ch.transmit(msg), msg);
  EXPECT_DOUBLE_EQ(ch.last_message().time_s, ch.transfer_time(1234));
  EXPECT_EQ(ch.packets_sent(), 0);
  EXPECT_EQ(ch.retransmits(), 0);
}

TEST(LinkChannel, ValidatesLinkConfig) {
  EXPECT_THROW(sc::Channel({.link = {.mtu_bytes = -1}}),
               std::invalid_argument);
  EXPECT_THROW(sc::Channel({.link = {.mtu_bytes = 10, .loss_prob = 1.5f}}),
               std::invalid_argument);
  EXPECT_THROW(sc::Channel({.link = {.mtu_bytes = 10, .jitter_s = -0.1}}),
               std::invalid_argument);
  EXPECT_THROW(
      sc::Channel({.link = {.mtu_bytes = 10, .max_retransmits = -1}}),
      std::invalid_argument);
  EXPECT_THROW(
      sc::Channel({.link = {.mtu_bytes = 10, .packet_overhead_bytes = -4}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
