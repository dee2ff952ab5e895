#include "sc/channel.hpp"

#include "serve/telemetry.hpp"

namespace mtlsplit::sc {

void Channel::bind_telemetry(telemetry::Registry& reg,
                             const std::string& prefix) {
  tm_.messages = &reg.counter(prefix + "/messages");
  tm_.bytes = &reg.counter(prefix + "/bytes");
  tm_.packets = &reg.counter(prefix + "/packets");
  tm_.parity_packets = &reg.counter(prefix + "/parity_packets");
  tm_.retransmits = &reg.counter(prefix + "/retransmits");
  tm_.fec_repaired = &reg.counter(prefix + "/fec_repaired");
  tm_.undelivered = &reg.counter(prefix + "/undelivered");
  tm_.window = &reg.gauge(prefix + "/window");
}

void Channel::unbind_telemetry() { tm_ = TelemetryRefs{}; }

Channel::Channel(const ChannelConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  check_arg(cfg.bandwidth_bps > 0.0, "Channel: bandwidth must be positive");
  check_arg(cfg.base_latency_s >= 0.0, "Channel: negative base latency");
  check_arg(cfg.degradation >= 0.0 && cfg.degradation < 1.0,
            "Channel: degradation must be in [0, 1)");
  check_arg(cfg.corrupt_prob >= 0.0f && cfg.corrupt_prob <= 1.0f,
            "Channel: bad corruption probability");
  // The one place the link rules run: link_deliver assumes a validated
  // model, so the per-message hot path repeats none of these checks.
  validate_link(cfg.link);
}

Channel Channel::fork(uint64_t session) const {
  ChannelConfig cfg = cfg_;
  // splitmix64 of (seed, session): decorrelates the per-session corruption
  // streams even for adjacent session ids.
  uint64_t z = cfg.seed + 0x9e3779b97f4a7c15ULL * (session + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  cfg.seed = z ^ (z >> 31);
  return Channel(cfg);
}

double Channel::transfer_time(int64_t bytes) const {
  check_arg(bytes >= 0, "Channel::transfer_time: negative size");
  const double effective_bw = cfg_.bandwidth_bps * (1.0 - cfg_.degradation);
  return cfg_.base_latency_s +
         static_cast<double>(bytes) * 8.0 / effective_bw;
}

std::vector<uint8_t> Channel::transmit(std::vector<uint8_t> message) {
  const int64_t bytes = static_cast<int64_t>(message.size());
  if (cfg_.link.enabled()) {
    const double per_byte_s =
        8.0 / (cfg_.bandwidth_bps * (1.0 - cfg_.degradation));
    last_ = link_deliver(cfg_.link, per_byte_s, cfg_.base_latency_s, rng_,
                         &link_session_, message);
  } else {
    last_ = {.messages = 1,
             .bytes = bytes,
             .bytes_raw = bytes,
             .time_s = transfer_time(bytes)};
  }
  totals_ += last_;
  if (tm_.messages) {
    tm_.messages->inc();
    tm_.bytes->add(last_.bytes);
    tm_.packets->add(last_.packets);
    tm_.parity_packets->add(last_.parity_packets);
    tm_.retransmits->add(last_.retransmits);
    tm_.fec_repaired->add(last_.fec_repaired);
    tm_.undelivered->add(last_.undelivered);
    if (last_.window > 0.0) tm_.window->set(last_.window);
  }
  if (cfg_.corrupt_prob > 0.0f) {
    for (uint8_t& b : message)
      if (rng_.bernoulli(cfg_.corrupt_prob))
        b ^= static_cast<uint8_t>(1u << rng_.randint(0, 7));
  }
  return message;
}

std::vector<uint8_t> FaultInjectChannel::transmit(
    std::vector<uint8_t> message) {
  // Base transmit keeps the latency/byte accounting (and any configured
  // probabilistic corruption) identical to a clean session.
  std::vector<uint8_t> received = Channel::transmit(std::move(message));
  ++seen_;
  if (fault_.every_k > 0 && seen_ % fault_.every_k == 0) {
    ++injected_;
    if (fault_.mode == FaultSpec::Mode::kDrop) return {};
    if (!received.empty()) received[received.size() / 2] ^= 0x01;
  }
  return received;
}

}  // namespace mtlsplit::sc
