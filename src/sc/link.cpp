#include "sc/link.hpp"

#include <algorithm>
#include <cstring>

#include "sc/fec.hpp"

namespace mtlsplit::sc {

void validate_link(const LinkModel& link) {
  check_arg(link.mtu_bytes >= 0, "LinkModel: negative MTU");
  check_arg(link.loss_prob >= 0.0f && link.loss_prob <= 1.0f,
            "LinkModel: bad packet loss probability");
  check_arg(link.corrupt_prob >= 0.0f && link.corrupt_prob <= 1.0f,
            "LinkModel: bad packet corruption probability");
  check_arg(link.jitter_s >= 0.0, "LinkModel: negative jitter");
  check_arg(link.max_retransmits >= 0, "LinkModel: negative retransmit budget");
  check_arg(link.packet_overhead_bytes >= 0,
            "LinkModel: negative packet overhead");
  check_arg(link.drop_every_k >= 0, "LinkModel: negative drop period");
  check_arg(link.fec_data >= 0 && link.fec_parity >= 0,
            "LinkModel: negative FEC group geometry");
  check_arg(link.fec_parity == 0 || link.fec_data > 0,
            "LinkModel: parity packets without data packets");
  check_arg(link.fec_data + link.fec_parity <= kFecMaxShards,
            "LinkModel: FEC group exceeds the GF(256) shard budget");
  check_arg(link.window_init >= 1.0, "LinkModel: window_init below 1 packet");
  check_arg(link.window_max >= link.window_init,
            "LinkModel: window_max below window_init");
  check_arg(link.window_increase >= 0.0,
            "LinkModel: negative additive increase");
  check_arg(link.window_backoff > 0.0 && link.window_backoff <= 1.0,
            "LinkModel: backoff outside (0, 1]");
  check_arg(link.timeout_s >= 0.0, "LinkModel: negative retransmit timeout");
}

namespace {

/// One wire packet of the message being delivered.
struct Packet {
  int64_t begin = 0;   ///< data: span start in the message
  int64_t end = 0;     ///< data: span end in the message
  int64_t store = -1;  ///< parity: index into the parity shard store
  int64_t bytes = 0;   ///< payload length on the wire
  int64_t group = 0;   ///< FEC frame group this packet belongs to
  int attempts = 0;
  bool parity = false;
  bool delivered = false;
};

}  // namespace

WireTally link_deliver(const LinkModel& link, double per_byte_s,
                       double base_latency_s, Rng& rng, LinkSession* session,
                       std::vector<uint8_t>& message) {
  const int64_t n = static_cast<int64_t>(message.size());
  WireTally out{.messages = 1, .bytes = n, .bytes_raw = n};
  // An empty message still costs one (empty) packet of setup time.
  const int64_t ndata =
      std::max<int64_t>(1, (n + link.mtu_bytes - 1) / link.mtu_bytes);
  if (session->cwnd < 1.0) session->cwnd = link.window_init;

  // --- Framing: data packets in message order; with FEC, each group of
  // fec_data packets is followed by its parity packets. Parity shards
  // are padded to the group's longest payload for the GF(256) math.
  const bool fec = link.fec_enabled() && n > 0;
  const int64_t group_size = fec ? link.fec_data : ndata;
  const int64_t ngroups = (ndata + group_size - 1) / group_size;
  std::vector<Packet> pkts;
  std::vector<std::vector<uint8_t>> parity_store;
  for (int64_t g = 0; g < ngroups; ++g) {
    const int64_t d0 = g * group_size;
    const int64_t d1 = std::min(ndata, d0 + group_size);
    const size_t first_in_group = pkts.size();
    int64_t shard_len = 0;
    for (int64_t d = d0; d < d1; ++d) {
      Packet p;
      p.begin = d * link.mtu_bytes;
      p.end = std::min(n, p.begin + link.mtu_bytes);
      p.bytes = p.end - p.begin;
      p.group = g;
      shard_len = std::max(shard_len, p.bytes);
      pkts.push_back(p);
    }
    if (fec && shard_len > 0) {
      std::vector<std::vector<uint8_t>> shards;
      shards.reserve(static_cast<size_t>(d1 - d0));
      for (size_t i = first_in_group; i < pkts.size(); ++i) {
        const Packet& p = pkts[i];
        std::vector<uint8_t> s(static_cast<size_t>(shard_len), 0);
        std::memcpy(s.data(), message.data() + p.begin,
                    static_cast<size_t>(p.bytes));
        shards.push_back(std::move(s));
      }
      auto parity = fec_encode(shards, link.fec_parity);
      for (auto& ps : parity) {
        Packet p;
        p.parity = true;
        p.group = g;
        p.bytes = shard_len;
        p.store = static_cast<int64_t>(parity_store.size());
        parity_store.push_back(std::move(ps));
        pkts.push_back(p);
      }
    }
  }
  out.packets = ndata;
  out.parity_packets = static_cast<int64_t>(pkts.size()) - ndata;

  const double rto = link.timeout_s > 0.0
                         ? link.timeout_s
                         : 2.0 * base_latency_s + link.jitter_s;

  // One window round: the burst goes out back-to-back (serialisation +
  // jitter per packet) inside one round trip; the receiver's feedback at
  // the end of the round tells the sender what was lost. AIMD: a clean
  // round opens the window additively, any loss closes it
  // multiplicatively.
  auto run_round = [&](const std::vector<size_t>& burst) {
    out.time_s += 2.0 * base_latency_s;
    int64_t lost_in_round = 0;
    for (const size_t idx : burst) {
      Packet& p = pkts[idx];
      out.time_s += static_cast<double>(p.bytes + link.packet_overhead_bytes) *
                    per_byte_s;
      if (link.jitter_s > 0.0)
        out.time_s += rng.uniform_double(0.0, link.jitter_s);
      const int64_t seq = ++session->packet_seq;  // 1-based across session
      ++p.attempts;
      if (p.attempts > 1) ++out.retransmits;
      const bool scheduled_drop = p.attempts == 1 && link.drop_every_k > 0 &&
                                  seq % link.drop_every_k == 0;
      const bool lost =
          scheduled_drop ||
          (link.loss_prob > 0.0f && rng.bernoulli(link.loss_prob));
      const bool corrupted = !lost && link.corrupt_prob > 0.0f &&
                             rng.bernoulli(link.corrupt_prob);
      if (lost || corrupted)
        ++lost_in_round;
      else
        p.delivered = true;
    }
    if (lost_in_round == 0)
      session->cwnd =
          std::min(link.window_max, session->cwnd + link.window_increase);
    else
      session->cwnd = std::max(1.0, session->cwnd * link.window_backoff);
  };

  // --- Phase 1: every packet's first attempt, window-paced.
  {
    size_t next = 0;
    while (next < pkts.size()) {
      const int64_t w =
          std::max<int64_t>(1, static_cast<int64_t>(session->cwnd));
      std::vector<size_t> burst;
      for (int64_t i = 0; i < w && next < pkts.size(); ++i)
        burst.push_back(next++);
      run_round(burst);
    }
  }

  // --- Phase 2: zero-RTT FEC repair. A group that kept at least
  // |group data| of its shards reconstructs every erased data packet
  // from the survivors — no retransmit, no extra round trip. Groups
  // beyond parity's reach queue their missing data for phase 3.
  std::vector<size_t> retx_queue;
  for (int64_t g = 0; g < ngroups; ++g) {
    std::vector<size_t> group_data, group_parity;
    for (size_t i = 0; i < pkts.size(); ++i)
      if (pkts[i].group == g)
        (pkts[i].parity ? group_parity : group_data).push_back(i);
    std::vector<size_t> missing;
    int64_t survivors = 0;
    for (const size_t i : group_data) {
      if (pkts[i].delivered)
        ++survivors;
      else
        missing.push_back(i);
    }
    if (missing.empty()) continue;
    for (const size_t i : group_parity)
      if (pkts[i].delivered) ++survivors;
    if (fec && survivors >= static_cast<int64_t>(group_data.size())) {
      // Rebuild the erased spans from surviving shards + parity. The
      // erased spans are zeroed first so the repair is a real
      // reconstruction, not a read of the sender's copy.
      int64_t shard_len = 0;
      for (const size_t i : group_data)
        shard_len = std::max(shard_len, pkts[i].bytes);
      std::vector<std::vector<uint8_t>> data_shards, parity_shards;
      for (const size_t i : group_data) {
        const Packet& p = pkts[i];
        if (!p.delivered) {
          if (p.end > p.begin)
            std::memset(message.data() + p.begin, 0,
                        static_cast<size_t>(p.end - p.begin));
          data_shards.emplace_back();  // empty = erased
          continue;
        }
        std::vector<uint8_t> s(static_cast<size_t>(shard_len), 0);
        std::memcpy(s.data(), message.data() + p.begin,
                    static_cast<size_t>(p.bytes));
        data_shards.push_back(std::move(s));
      }
      for (const size_t i : group_parity)
        parity_shards.push_back(pkts[i].delivered
                                    ? parity_store[static_cast<size_t>(
                                          pkts[i].store)]
                                    : std::vector<uint8_t>());
      const bool repaired = fec_decode(data_shards, parity_shards);
      check_arg(repaired, "link_deliver: FEC repair with enough survivors "
                          "must succeed");
      for (size_t k = 0; k < group_data.size(); ++k) {
        Packet& p = pkts[group_data[k]];
        if (p.delivered) continue;
        std::memcpy(message.data() + p.begin, data_shards[k].data(),
                    static_cast<size_t>(p.bytes));
        p.delivered = true;
        ++out.fec_repaired;
      }
    } else {
      for (const size_t i : missing) retx_queue.push_back(i);
    }
  }

  // --- Phase 3: timeout-driven retransmit for what FEC could not cover.
  // Each round waits out the retransmit timeout, then resends inside the
  // (backed-off) window. A packet that exhausts its budget is delivered
  // as an erasure: zero-filled, so the CRC above fails typed, never
  // silently.
  auto settle_exhausted = [&](std::vector<size_t>& queue) {
    std::vector<size_t> keep;
    for (const size_t idx : queue) {
      Packet& p = pkts[idx];
      if (p.delivered) continue;
      if (p.attempts >= 1 + link.max_retransmits) {
        ++out.undelivered;
        if (p.end > p.begin)
          std::memset(message.data() + p.begin, 0,
                      static_cast<size_t>(p.end - p.begin));
      } else {
        keep.push_back(idx);
      }
    }
    queue = std::move(keep);
  };
  settle_exhausted(retx_queue);
  while (!retx_queue.empty()) {
    out.time_s += rto;
    const int64_t w = std::max<int64_t>(1, static_cast<int64_t>(session->cwnd));
    const size_t take = std::min(retx_queue.size(), static_cast<size_t>(w));
    std::vector<size_t> burst(retx_queue.begin(),
                              retx_queue.begin() + static_cast<int64_t>(take));
    retx_queue.erase(retx_queue.begin(),
                     retx_queue.begin() + static_cast<int64_t>(take));
    run_round(burst);
    for (const size_t idx : burst)
      if (!pkts[idx].delivered) retx_queue.push_back(idx);
    settle_exhausted(retx_queue);
  }

  out.window = session->cwnd;
  return out;
}

}  // namespace mtlsplit::sc
