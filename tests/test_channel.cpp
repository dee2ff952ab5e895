// Channel model and int8 quantiser.
#include <gtest/gtest.h>

#include "sc/channel.hpp"
#include "sc/quantize.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"

namespace mtlsplit {
namespace {

TEST(Channel, TransferTimeMatchesPaperArithmetic) {
  // §4.2: ~115 MB over a gigabit channel -> ~0.92 s per input, ~92 s for
  // 100 inputs (the paper rounds to ~98 s including overheads).
  sc::Channel ch({.bandwidth_bps = 1e9});
  const int64_t bytes_115mb = 115LL * 1000 * 1000;
  const double t = ch.transfer_time(bytes_115mb);
  EXPECT_NEAR(t, 0.92, 0.01);
  EXPECT_NEAR(100.0 * t, 92.0, 1.0);
  // And the SC-side numbers: 1.5 MB -> ~0.012 s each, ~1.2 s per 100.
  const double t_sc = ch.transfer_time(1'500'000);
  EXPECT_NEAR(t_sc, 0.012, 0.001);
}

TEST(Channel, BaseLatencyAdds) {
  sc::Channel ch({.bandwidth_bps = 1e9, .base_latency_s = 0.1});
  EXPECT_NEAR(ch.transfer_time(0), 0.1, 1e-12);
  EXPECT_NEAR(ch.transfer_time(1'000'000), 0.1 + 0.008, 1e-6);
}

TEST(Channel, DegradationScalesBandwidth) {
  sc::Channel good({.bandwidth_bps = 1e9});
  sc::Channel bad({.bandwidth_bps = 1e9, .degradation = 0.9});
  EXPECT_NEAR(bad.transfer_time(1'000'000),
              10.0 * good.transfer_time(1'000'000), 1e-9);
}

TEST(Channel, StatsAccumulate) {
  sc::Channel ch({.bandwidth_bps = 1e6});
  (void)ch.transmit(std::vector<uint8_t>(1000, 0));
  (void)ch.transmit(std::vector<uint8_t>(500, 0));
  EXPECT_EQ(ch.messages_sent(), 2);
  EXPECT_EQ(ch.total_bytes(), 1500);
  EXPECT_NEAR(ch.totals().time_s, 1500.0 * 8.0 / 1e6, 1e-9);
  ch.reset_stats();
  EXPECT_EQ(ch.messages_sent(), 0);
  EXPECT_EQ(ch.total_bytes(), 0);
}

TEST(Channel, CleanChannelPreservesBytes) {
  sc::Channel ch({.bandwidth_bps = 1e9});
  std::vector<uint8_t> msg = {1, 2, 3, 4, 5};
  EXPECT_EQ(ch.transmit(msg), msg);
}

TEST(Channel, CorruptionFlipsBitsAndCrcCatchesIt) {
  sc::Channel ch({.bandwidth_bps = 1e9, .corrupt_prob = 0.5f, .seed = 7});
  Tensor t({64}, 1.0f);
  const auto sent = serialize_tensor(t);
  const auto received = ch.transmit(sent);
  EXPECT_NE(received, sent);
  EXPECT_THROW(deserialize_tensor(received), std::invalid_argument);
}

TEST(Channel, ValidatesConfig) {
  EXPECT_THROW(sc::Channel({.bandwidth_bps = 0.0}), std::invalid_argument);
  EXPECT_THROW(sc::Channel({.bandwidth_bps = 1e9, .degradation = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(sc::Channel({.bandwidth_bps = 1e9, .base_latency_s = -1.0}),
               std::invalid_argument);
  sc::Channel ok({.bandwidth_bps = 1e9});
  EXPECT_THROW(ok.transfer_time(-1), std::invalid_argument);
}

TEST(Quantize, RoundTripErrorBoundedByScale) {
  Rng rng(1);
  Tensor t({256});
  rng.fill_normal(t, 0.0f, 3.0f);
  const sc::QuantizedTensor q = sc::quantize_int8(t);
  const float err = sc::quantization_error(t);
  // Affine double rounding (value + zero point) bounds the error by one
  // scale step, not half.
  EXPECT_LE(err, q.scale * 1.01f + 1e-6f);
  EXPECT_EQ(q.payload_bytes(), 256);
}

TEST(Quantize, ExtremesMapNearRangeEnds) {
  const Tensor t = Tensor::from_values({-10.0f, 0.0f, 10.0f});
  const sc::QuantizedTensor q = sc::quantize_int8(t);
  EXPECT_LE(q.values.front(), -126);
  EXPECT_GE(q.values.back(), 126);
  const Tensor back = sc::dequantize_int8(q);
  EXPECT_NEAR(back[0], -10.0f, 1.01f * q.scale);
  EXPECT_NEAR(back[2], 10.0f, 1.01f * q.scale);
}

TEST(Quantize, ConstantTensorSurvives) {
  const Tensor t({16}, 2.5f);
  const Tensor back = sc::dequantize_int8(sc::quantize_int8(t));
  for (int64_t i = 0; i < 16; ++i) EXPECT_NEAR(back[i], 2.5f, 1e-3f);
}

TEST(Quantize, CompressionRatioIsFourX) {
  const Shape shape{1, 1000};
  EXPECT_LT(wire_size_i8(shape) * 3, wire_size_f32(shape));
  // asymptotically 4x: payload 1000 vs 4000 bytes.
  EXPECT_NEAR(static_cast<double>(wire_size_f32(shape)) /
                  static_cast<double>(wire_size_i8(shape)),
              4.0, 0.2);
}

TEST(Quantize, WireRoundTrip) {
  Rng rng(2);
  Tensor t({2, 8});
  rng.fill_normal(t, 0.0f, 1.0f);
  const sc::QuantizedTensor q = sc::quantize_int8(t);
  const auto bytes = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
  const WireTensor wt = deserialize_tensor(bytes);
  ASSERT_EQ(wt.dtype, WireDtype::kInt8);
  const Tensor back =
      sc::dequantize_int8({wt.shape, wt.i8, wt.scale, wt.zero_point});
  EXPECT_TRUE(back.allclose(t, q.scale * 0.51f + 1e-6f));
}

}  // namespace
}  // namespace mtlsplit
