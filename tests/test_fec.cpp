// FEC parity repair for the packetised wire (sc/fec.hpp + sc/link.hpp,
// DESIGN.md §9).
//
// Codec-level properties: any <= P erasures per group — data or parity,
// every position — are reconstructed bitwise; P + 1 erasures are refused
// (decode returns false, data untouched) so the link can fall back to
// retransmit; P == 1 parity is plain XOR. A randomized group-size x
// shard-length x erasure-pattern fuzz sweep backs the exhaustive small
// cases.
//
// Link-level properties: a deterministic one-drop-per-group schedule is
// repaired with ZERO retransmit round trips (the zero-RTT drill the
// bench asserts at 1% loss); more erasures than parity fall back to the
// windowed retransmit path and still deliver bitwise; goodput is
// non-increasing in loss rate under the congestion-window model; a
// session's totals() are exactly the += sum of its per-message tallies.
//
// The fuzz seed is environment-overridable (MTLSPLIT_FUZZ_SEED) so CI
// can loop the suite with fresh corpora — see the randomized-decode
// smoke step in .github/workflows/ci.yml.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <vector>

#include "sc/channel.hpp"
#include "sc/fec.hpp"
#include "tensor/rng.hpp"

namespace mtlsplit {
namespace {

uint64_t fuzz_seed() {
  if (const char* env = std::getenv("MTLSPLIT_FUZZ_SEED"))
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  return 0xFEC0;
}

std::vector<std::vector<uint8_t>> make_group(Rng& rng, int64_t g,
                                             size_t len) {
  std::vector<std::vector<uint8_t>> data(static_cast<size_t>(g));
  for (auto& shard : data) {
    shard.resize(len);
    for (auto& b : shard) b = static_cast<uint8_t>(rng.randint(0, 255));
  }
  return data;
}

std::vector<uint8_t> test_message(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> m(n);
  for (auto& b : m) b = static_cast<uint8_t>(rng.randint(0, 255));
  return m;
}

// ------------------------------------------------------- codec: repair

TEST(Fec, SingleParityIsXorOfDataShards) {
  Rng rng(1);
  const auto data = make_group(rng, 6, 32);
  const auto parity = sc::fec_encode(data, 1);
  ASSERT_EQ(parity.size(), 1u);
  std::vector<uint8_t> want(32, 0);
  for (const auto& shard : data)
    for (size_t i = 0; i < shard.size(); ++i) want[i] ^= shard[i];
  EXPECT_EQ(parity[0], want);
}

TEST(Fec, EverySingleErasurePositionRepairsBitwise) {
  // G = 8, P = 1: erase each of the 9 shards in turn. Data erasures must
  // come back bitwise; a parity erasure needs no repair at all.
  Rng rng(2);
  const auto original = make_group(rng, 8, 48);
  const auto parity = sc::fec_encode(original, 1);
  for (size_t pos = 0; pos < 9; ++pos) {
    auto data = original;
    auto par = parity;
    if (pos < 8)
      data[pos].clear();
    else
      par[pos - 8].clear();
    ASSERT_TRUE(sc::fec_decode(data, par)) << "erasure at " << pos;
    EXPECT_EQ(data, original) << "erasure at " << pos;
  }
}

TEST(Fec, ExactlyPErasuresRepairForAllPositions) {
  // G = 5, P = 3: every C(8,3) = 56 way of erasing exactly P of the
  // G + P shards must reconstruct the data bitwise — the MDS property of
  // the Cauchy construction, exhaustively.
  Rng rng(3);
  const auto original = make_group(rng, 5, 17);
  const auto parity = sc::fec_encode(original, 3);
  int combos = 0;
  for (size_t a = 0; a < 8; ++a)
    for (size_t b = a + 1; b < 8; ++b)
      for (size_t c = b + 1; c < 8; ++c) {
        auto data = original;
        auto par = parity;
        for (size_t pos : {a, b, c}) {
          if (pos < 5)
            data[pos].clear();
          else
            par[pos - 5].clear();
        }
        ASSERT_TRUE(sc::fec_decode(data, par))
            << "erasures " << a << "," << b << "," << c;
        EXPECT_EQ(data, original)
            << "erasures " << a << "," << b << "," << c;
        ++combos;
      }
  EXPECT_EQ(combos, 56);
}

TEST(Fec, MoreThanPErasuresAreRefusedAndDataUntouched) {
  // P + 1 erasures leave fewer than G survivors: decode must return
  // false WITHOUT fabricating bytes, so the link falls back to its
  // retransmit path instead of delivering a silent wrong payload.
  Rng rng(4);
  const auto original = make_group(rng, 6, 40);
  const auto parity = sc::fec_encode(original, 2);
  auto data = original;
  auto par = parity;
  data[0].clear();
  data[3].clear();
  par[1].clear();
  auto before = data;
  EXPECT_FALSE(sc::fec_decode(data, par));
  EXPECT_EQ(data, before);
}

TEST(Fec, ValidatesShardShapes) {
  EXPECT_THROW((void)sc::fec_encode({}, 1), std::invalid_argument);
  EXPECT_THROW((void)sc::fec_encode({{1, 2, 3}}, 0), std::invalid_argument);
  EXPECT_THROW((void)sc::fec_encode({{}}, 1), std::invalid_argument);
  EXPECT_THROW((void)sc::fec_encode({{1, 2}, {1, 2, 3}}, 1),
               std::invalid_argument);
  std::vector<std::vector<uint8_t>> too_many(
      200, std::vector<uint8_t>(4, 0));
  EXPECT_THROW((void)sc::fec_encode(too_many, 100), std::invalid_argument);
}

// --------------------------------------------------------- codec: fuzz

TEST(Fec, RandomizedGroupAndErasureSweep) {
  // Random G x P x shard length x erasure pattern: <= P erasures always
  // repair bitwise, > P erasures are always refused.
  Rng rng(fuzz_seed());
  for (int iter = 0; iter < 400; ++iter) {
    const int64_t g = rng.randint(1, 12);
    const int64_t p = rng.randint(1, 4);
    const size_t len = static_cast<size_t>(rng.randint(1, 64));
    const auto original = make_group(rng, g, len);
    const auto parity = sc::fec_encode(original, p);

    // Pick a distinct random erasure set of size 0..p+1 (capped at the
    // shard count) over the g + p shards.
    const int64_t max_erase = std::min<int64_t>(p + 1, g + p);
    const int64_t n_erase = rng.randint(0, max_erase);
    std::vector<size_t> all(static_cast<size_t>(g + p));
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    for (size_t i = 0; i < static_cast<size_t>(n_erase); ++i) {
      const size_t j = static_cast<size_t>(
          rng.randint(static_cast<int64_t>(i),
                      static_cast<int64_t>(all.size()) - 1));
      std::swap(all[i], all[j]);
    }

    auto data = original;
    auto par = parity;
    for (size_t i = 0; i < static_cast<size_t>(n_erase); ++i) {
      const size_t pos = all[i];
      if (pos < static_cast<size_t>(g))
        data[pos].clear();
      else
        par[pos - static_cast<size_t>(g)].clear();
    }

    const bool ok = sc::fec_decode(data, par);
    if (n_erase <= p) {
      ASSERT_TRUE(ok) << "iter " << iter << " g=" << g << " p=" << p
                      << " erased=" << n_erase;
      EXPECT_EQ(data, original) << "iter " << iter;
    } else {
      EXPECT_FALSE(ok) << "iter " << iter << " g=" << g << " p=" << p;
    }
  }
}

// ------------------------------------------------- link: zero-RTT drill

TEST(FecLink, OneErasurePerGroupRepairsWithZeroRetransmits) {
  // G = 8 data + P = 1 parity = 9 packets per group on the wire. The
  // deterministic schedule drops the first attempt of every 7th packet:
  // across three groups (27 packets) that erases one DATA packet per
  // group (sequences 7, 14, 21 — never the parity at 9, 18, 27), so FEC
  // repairs everything receiver-side and the retransmit path never runs.
  sc::Channel ch({.bandwidth_bps = 1e8,
                  .base_latency_s = 0.001,
                  .link = {.mtu_bytes = 100,
                           .drop_every_k = 7,
                           .fec_data = 8,
                           .fec_parity = 1}});
  const auto msg = test_message(2400, 6);  // 24 data packets, 3 groups
  const auto received = ch.transmit(msg);
  EXPECT_EQ(received, msg);  // repaired spans are bitwise the original
  EXPECT_EQ(ch.packets_sent(), 24);
  EXPECT_EQ(ch.totals().parity_packets, 3);
  EXPECT_EQ(ch.fec_repaired(), 3);
  EXPECT_EQ(ch.retransmits(), 0);  // zero extra round trips
  EXPECT_EQ(ch.undelivered(), 0);
  EXPECT_EQ(ch.last_message().fec_repaired, 3);
}

TEST(FecLink, BeyondParityBudgetFallsBackToRetransmit) {
  // G = 4 + P = 1: dropping every 2nd packet erases two data packets in
  // each group — beyond the parity budget — so the link must fall back
  // to timeout-driven retransmission and still deliver bitwise.
  sc::Channel ch({.bandwidth_bps = 1e8,
                  .base_latency_s = 0.001,
                  .link = {.mtu_bytes = 100,
                           .drop_every_k = 2,
                           .fec_data = 4,
                           .fec_parity = 1}});
  const auto msg = test_message(800, 7);  // 8 data packets, 2 groups
  const auto received = ch.transmit(msg);
  EXPECT_EQ(received, msg);
  EXPECT_EQ(ch.fec_repaired(), 0);  // groups were unrepairable
  EXPECT_EQ(ch.retransmits(), 4);   // data drops at seq 2, 4, 6, 8
  EXPECT_EQ(ch.undelivered(), 0);
}

TEST(FecLink, ExhaustedBudgetBeyondParityIsTypedNeverSilent) {
  // Two erasures per group, no retransmit budget: the un-repairable data
  // packets surface as counted erasures and a payload mismatch — the
  // bitwise-serving invariant is "repaired or typed", never silent.
  sc::Channel ch({.bandwidth_bps = 1e8,
                  .link = {.mtu_bytes = 100,
                           .max_retransmits = 0,
                           .drop_every_k = 2,
                           .fec_data = 4,
                           .fec_parity = 1}});
  const auto msg = test_message(800, 8);
  const auto received = ch.transmit(msg);
  EXPECT_NE(received, msg);
  EXPECT_EQ(ch.undelivered(), 4);
  EXPECT_EQ(ch.last_message().undelivered, 4);
  EXPECT_EQ(ch.retransmits(), 0);
}

// -------------------------------------------- link: window monotonicity

TEST(FecLink, GoodputIsNonIncreasingInLossRate) {
  // Under the congestion-window model, loss costs backoff rounds and
  // retransmit timeouts: session goodput (delivered payload bytes per
  // modelled second) must not increase with the loss rate. Averaged over
  // 60 messages so the seeded schedules cannot flip the ordering.
  double prev_goodput = std::numeric_limits<double>::infinity();
  for (float loss : {0.0f, 0.02f, 0.1f, 0.3f}) {
    sc::Channel ch({.bandwidth_bps = 1e8,
                    .base_latency_s = 0.0005,
                    .seed = 13,
                    .link = {.mtu_bytes = 100,
                             .loss_prob = loss,
                             .max_retransmits = 16,
                             .fec_data = 8,
                             .fec_parity = 1}});
    for (uint64_t i = 0; i < 60; ++i)
      (void)ch.transmit(test_message(2000, i));
    const double goodput = ch.totals().goodput_bytes_s();
    EXPECT_LE(goodput, prev_goodput) << "loss " << loss;
    prev_goodput = goodput;
  }
}

TEST(FecLink, RandomizedLossSweepNeverDeliversSilentlyWrong) {
  // Fuzz the link end to end: random message sizes, group shapes, and
  // loss rates, several messages per session. Whatever the loss draws
  // do, the delivery contract holds: undelivered == 0 implies a bitwise
  // payload, undelivered > 0 implies a visibly damaged one, and the
  // session's totals() are exactly the += sum of its per-message tallies.
  Rng rng(fuzz_seed() + 1);
  for (int iter = 0; iter < 40; ++iter) {
    sc::ChannelConfig cfg{.bandwidth_bps = 1e8,
                          .base_latency_s = 0.0002,
                          .seed = static_cast<uint64_t>(
                              rng.randint(1, 1 << 20))};
    cfg.link.mtu_bytes = rng.randint(32, 256);
    cfg.link.loss_prob = static_cast<float>(rng.uniform(0.0f, 0.3f));
    cfg.link.max_retransmits = static_cast<int>(rng.randint(0, 4));
    cfg.link.fec_data = rng.randint(1, 10);
    cfg.link.fec_parity = rng.randint(1, 3);
    sc::Channel ch(cfg);
    sc::WireTally sum;
    const int64_t messages = rng.randint(2, 5);
    for (int64_t m = 0; m < messages; ++m) {
      const auto msg = test_message(static_cast<size_t>(rng.randint(1, 4000)),
                                    static_cast<uint64_t>(1000 + 8 * iter + m));
      const auto received = ch.transmit(msg);
      const sc::WireTally& last = ch.last_message();
      ASSERT_EQ(received.size(), msg.size());
      if (last.undelivered == 0) {
        EXPECT_EQ(received, msg) << "iter " << iter << " message " << m;
      } else {
        EXPECT_NE(received, msg) << "iter " << iter << " message " << m;
      }
      EXPECT_EQ(last.messages, 1);
      EXPECT_EQ(last.bytes, static_cast<int64_t>(msg.size()));
      EXPECT_GE(last.fec_repaired, 0);
      EXPECT_GE(last.retransmits, 0);
      EXPECT_LE(last.undelivered, last.packets);
      EXPECT_GE(last.goodput_bytes_s(), 0.0);
      sum += last;
    }
    EXPECT_EQ(ch.totals(), sum) << "iter " << iter;
    EXPECT_EQ(ch.totals().window, ch.window()) << "iter " << iter;
  }
}

}  // namespace
}  // namespace mtlsplit
