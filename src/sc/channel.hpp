// Communication-channel model between the edge device and the remote
// server (the "Network" box of paper Fig. 1).
//
// Transfer time follows the paper's §4.2 arithmetic — bytes / bandwidth —
// plus a configurable per-message base latency, an optional degradation
// factor modelling poor channel conditions (§1: "excessive latency times,
// especially in degraded channel conditions"), and an optional corruption
// probability for failure-injection tests (corrupted payloads fail the
// wire-format CRC on receipt). With ChannelConfig::link enabled the
// channel additionally packetises every message into MTU-sized packets
// with per-packet loss, corruption, jitter, and a bounded retransmit loop
// (sc/link.hpp, DESIGN.md §9).
#pragma once

#include <cstdint>
#include <vector>

#include "sc/link.hpp"
#include "tensor/rng.hpp"

namespace mtlsplit::telemetry {
class Registry;
class Counter;
class Gauge;
}  // namespace mtlsplit::telemetry

namespace mtlsplit::sc {

struct ChannelConfig {
  double bandwidth_bps = 1e9;   ///< gigabit default, as in §4.2
  double base_latency_s = 0.0;  ///< per-message propagation/setup time
  double degradation = 0.0;     ///< [0,1): effective bw *= (1 - degradation)
  float corrupt_prob = 0.0f;    ///< probability a transmitted byte flips
  uint64_t seed = 42;
  /// Packetised lossy-link behaviour; disabled (whole-message transfer)
  /// unless link.mtu_bytes > 0.
  LinkModel link;
};

class Channel {
 public:
  explicit Channel(const ChannelConfig& cfg);

  /// Modelled wall-clock time to move @p bytes across the link in one
  /// piece — the analytic §4.2 view, ignoring packetisation and loss.
  double transfer_time(int64_t bytes) const;

  /// "Transmits" a message: records its tally in last_message() and
  /// totals() and applies byte corruption per corrupt_prob. With the link
  /// model enabled the message is packetised; packets drop/corrupt
  /// deterministically from the session RNG, FEC parity repairs up to
  /// fec_parity erasures per frame group with zero extra round trips, and
  /// a window-paced timeout/retransmit loop recovers the rest (an
  /// exhausted budget delivers an erasure that fails the CRC upstream).
  /// Returns the received bytes. Virtual so fault-injection wrappers
  /// (FaultInjectChannel) can intercept the wire deterministically.
  virtual std::vector<uint8_t> transmit(std::vector<uint8_t> message);

  virtual ~Channel() = default;
  /// A Channel is a wire *session*: it owns RNG and counter state that
  /// transmit() mutates. Copying one would alias that state across users
  /// (e.g. a minted server replica silently replaying another worker's
  /// corruption stream), so copies are deleted — fork() a fresh session
  /// or construct from config() instead. Moves transfer ownership.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel(Channel&&) = default;
  Channel& operator=(Channel&&) = default;

  /// Independent session over the same physical link: identical latency
  /// model, but its own RNG stream (derived from the base seed and
  /// @p session) and its own statistics. Channel is not thread-safe —
  /// transmit() mutates the RNG and counters — so concurrent users (e.g.
  /// the serving layer's worker pool) each fork a session instead of
  /// sharing one Channel.
  Channel fork(uint64_t session) const;

  /// Everything this session has sent since construction or reset_stats()
  /// — the += sum of every last_message().
  const WireTally& totals() const { return totals_; }
  /// The most recent transmit(): its time is transfer_time(bytes) without
  /// a link model and the windowed jitter/retransmit accounting with one.
  const WireTally& last_message() const { return last_; }
  /// Thin reads of totals().
  int64_t total_bytes() const { return totals_.bytes; }
  int64_t messages_sent() const { return totals_.messages; }
  int64_t packets_sent() const { return totals_.packets; }
  int64_t retransmits() const { return totals_.retransmits; }
  int64_t fec_repaired() const { return totals_.fec_repaired; }
  int64_t undelivered() const { return totals_.undelivered; }
  /// Current congestion window of this session, in packets (AIMD state;
  /// window_init until the first link delivery runs).
  double window() const {
    return link_session_.cwnd >= 1.0 ? link_session_.cwnd
                                     : cfg_.link.window_init;
  }
  /// Zeroes both tallies. The packet counter and congestion window are
  /// connection state, not statistics, and survive.
  void reset_stats() { totals_ = last_ = WireTally{}; }

  /// Mirrors this session's counters into a telemetry tree under
  /// @p prefix (e.g. "serve/shard0/link"): counters messages/bytes/
  /// packets/parity_packets/retransmits/fec_repaired/undelivered plus
  /// gauge window, updated on every transmit(). Several sessions bound
  /// to one prefix share the metrics (ScServer sums its workers' sessions
  /// this way). The
  /// registry must outlive the binding — unbind_telemetry() before it
  /// goes away (ScServer unbinds at shutdown). fork() starts unbound.
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);
  void unbind_telemetry();

  const ChannelConfig& config() const { return cfg_; }

 private:
  /// Tree mirrors of last_ per transmit(); null until bound.
  struct TelemetryRefs {
    telemetry::Counter* messages = nullptr;
    telemetry::Counter* bytes = nullptr;
    telemetry::Counter* packets = nullptr;
    telemetry::Counter* parity_packets = nullptr;
    telemetry::Counter* retransmits = nullptr;
    telemetry::Counter* fec_repaired = nullptr;
    telemetry::Counter* undelivered = nullptr;
    telemetry::Gauge* window = nullptr;
  };
  TelemetryRefs tm_;
  ChannelConfig cfg_;
  Rng rng_;
  LinkSession link_session_;  // packet counter + congestion window
  WireTally totals_;
  WireTally last_;
};

/// Deterministic fault schedule for FaultInjectChannel.
struct FaultSpec {
  /// Message numbers k, 2k, 3k, ... (1-based) are faulted; 0 disables.
  int64_t every_k = 0;
  enum class Mode {
    kCorrupt,  ///< flip one bit -> CRC failure on receipt
    kDrop      ///< deliver nothing -> truncated-message failure on receipt
  } mode = Mode::kCorrupt;
};

/// Channel wrapper that corrupts or drops every k-th wire message on a
/// deterministic schedule — the fault-injection companion to the
/// probabilistic corrupt_prob. Used through a Channel& (transmit is
/// virtual); note that Channel::fork slices back to a clean base-class
/// session, so fault-injecting servers hand ScServer explicit sessions
/// instead of letting it fork.
class FaultInjectChannel : public Channel {
 public:
  FaultInjectChannel(const ChannelConfig& cfg, FaultSpec fault)
      : Channel(cfg), fault_(fault) {
    check_arg(fault.every_k >= 0, "FaultInjectChannel: negative period");
  }

  std::vector<uint8_t> transmit(std::vector<uint8_t> message) override;

  int64_t faults_injected() const { return injected_; }

 private:
  FaultSpec fault_;
  int64_t seen_ = 0;
  int64_t injected_ = 0;
};

}  // namespace mtlsplit::sc
