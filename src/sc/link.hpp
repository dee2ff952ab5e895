// Lossy-link model for the edge→server wire (DESIGN.md §9).
//
// The base Channel moves whole messages at bytes/bandwidth + latency.
// LinkModel upgrades that to a packetised link with the reliability
// machinery a real transport carries:
//
//  * packetisation — a wire message splits into MTU-sized packets, each
//    attempt can be dropped or corrupted (drawn deterministically from
//    the channel session's RNG) and pays a per-attempt jitter draw;
//  * FEC frame groups (sc/fec.hpp) — every fec_data consecutive data
//    packets are followed by fec_parity Reed-Solomon parity packets, so
//    up to fec_parity erasures per group are repaired receiver-side with
//    ZERO extra round trips;
//  * a congestion window — packets go out in bursts bounded by an AIMD
//    window (additive increase per clean round, multiplicative backoff
//    on any loss), so loss rate degrades goodput the way a real link
//    does instead of only inflating modelled latency;
//  * timeout-driven retransmit — losses FEC cannot repair wait out a
//    retransmit timeout and re-enter the window. A packet whose
//    retransmit budget runs out is delivered as an erasure (zeroed
//    payload), which the frame/tensor CRC above rejects with a typed
//    error; the link never fails silently.
//
// All state machines here are pure functions of (LinkModel, channel
// latency parameters, RNG stream, LinkSession), so two sessions with the
// same seed replay byte-identical loss/jitter schedules and forked
// sessions drift independently.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/rng.hpp"

namespace mtlsplit::sc {

/// Packet-level link behaviour, embedded in ChannelConfig. mtu_bytes == 0
/// (the default) disables packetisation entirely — the channel then
/// behaves exactly as before this layer existed. Validation happens once
/// at configuration time (validate_link, called by Channel's
/// constructor); the per-message delivery path assumes a valid model.
struct LinkModel {
  int64_t mtu_bytes = 0;  ///< payload bytes per packet; 0 = whole-message
  int64_t packet_overhead_bytes = 32;  ///< per-packet header on the wire
  float loss_prob = 0.0f;     ///< P(drop) per packet attempt
  float corrupt_prob = 0.0f;  ///< P(per-packet CRC failure) per attempt
  double jitter_s = 0.0;      ///< max uniform extra delay per attempt
  int max_retransmits = 8;    ///< retries per packet beyond the first try
  /// Deterministic fault schedule for tests: the FIRST attempt of every
  /// k-th packet (1-based, counted across the session) is dropped; 0
  /// disables. FEC or retransmission then recovers it unless the random
  /// faults also strike.
  int64_t drop_every_k = 0;

  // --- FEC frame groups (sc/fec.hpp). Disabled unless both are > 0.
  int64_t fec_data = 0;    ///< G: data packets per frame group
  int64_t fec_parity = 0;  ///< P: parity packets appended per group

  // --- congestion window (AIMD). The window is session state
  // (LinkSession): it persists across messages like a real connection's.
  double window_init = 4.0;      ///< starting window, in packets
  double window_max = 64.0;      ///< additive-increase ceiling
  double window_increase = 1.0;  ///< cwnd += this per loss-free round
  double window_backoff = 0.5;   ///< cwnd *= this on a round with loss
  /// Retransmit timeout charged before every retransmit burst; 0 derives
  /// 2 * base_latency + jitter_s (one conservative RTT).
  double timeout_s = 0.0;

  bool enabled() const { return mtu_bytes > 0; }
  bool fec_enabled() const { return fec_data > 0 && fec_parity > 0; }
};

/// Validates every LinkModel rule, throwing std::invalid_argument on the
/// first violation. Channel's constructor runs this once per session so
/// link_deliver never re-checks on the hot path.
void validate_link(const LinkModel& link);

/// Per-session link state Channel carries across transmit() calls: the
/// running packet counter (drives drop_every_k) and the congestion
/// window. cwnd == 0 means "not started"; the first delivery initialises
/// it to LinkModel::window_init.
struct LinkSession {
  int64_t packet_seq = 0;
  double cwnd = 0.0;
};

/// Wire accounting for one message or any sum of messages — the one type
/// every layer (link, Channel, ScDeployment, the serve stats) reports the
/// edge→server wire in. Counts and time add under +=; the window is
/// sender state, so a sum keeps the latest nonzero one.
struct WireTally {
  int64_t messages = 0;
  int64_t bytes = 0;           ///< bytes that crossed the link
  /// Serialised bytes before the wire codec; equals bytes when the
  /// message was not entropy-coded.
  int64_t bytes_raw = 0;
  int64_t packets = 0;         ///< data packets (0 without a LinkModel)
  int64_t parity_packets = 0;  ///< FEC parity packets sent alongside
  int64_t retransmits = 0;     ///< extra attempts beyond one per packet
  int64_t fec_repaired = 0;    ///< data packets rebuilt from parity (zero-RTT)
  /// Data packets erased after FEC and the retransmit budget both failed;
  /// each surfaces upstream as a typed CRC/decode error, never silently.
  int64_t undelivered = 0;
  /// Modelled wire time including rounds, timeouts and jitter — the
  /// paper's §4.2 transfer term.
  double time_s = 0.0;
  /// Sender congestion window after the last message (0 without a
  /// LinkModel).
  double window = 0.0;

  WireTally& operator+=(const WireTally& o) {
    messages += o.messages;
    bytes += o.bytes;
    bytes_raw += o.bytes_raw;
    packets += o.packets;
    parity_packets += o.parity_packets;
    retransmits += o.retransmits;
    fec_repaired += o.fec_repaired;
    undelivered += o.undelivered;
    time_s += o.time_s;
    if (o.window > 0.0) window = o.window;
    return *this;
  }
  bool operator==(const WireTally&) const = default;

  /// Wire bytes per second of modelled wire time (0 before any time).
  double goodput_bytes_s() const {
    return time_s > 0.0 ? static_cast<double>(bytes) / time_s : 0.0;
  }
};

/// Runs @p message through the packetised loss/FEC/window/retransmit
/// state machine, rewriting it in place with the receiver's view
/// (FEC-repaired spans reconstructed bitwise, undelivered packets
/// zero-filled). @p per_byte_s is the effective seconds-per-byte of the
/// channel and @p base_latency_s its one-way propagation time; every
/// window round costs one round trip plus the burst's serialisation and
/// jitter. Returns the message's tally; the link sees no codec, so
/// bytes_raw == bytes. Precondition: validate_link(link) passed and
/// link.enabled().
WireTally link_deliver(const LinkModel& link, double per_byte_s,
                       double base_latency_s, Rng& rng, LinkSession* session,
                       std::vector<uint8_t>& message);

}  // namespace mtlsplit::sc
