#include "fleet/fleet.hpp"

#include <chrono>
#include <utility>

#include "mtl/mtl_model.hpp"
#include "sc/ping.hpp"
#include "tensor/check.hpp"

namespace mtlsplit::fleet {

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// ------------------------------------------------------------ membership

bool MembershipTable::apply(size_t node, NodeState state,
                            uint64_t incarnation) {
  check_arg(node < entries_.size(), "MembershipTable: node out of range");
  std::lock_guard<std::mutex> lk(mu_);
  MembershipEntry& e = entries_[node];
  if (e.state == NodeState::kDead) return false;  // terminal
  if (state == NodeState::kDead) {
    e.state = NodeState::kDead;
    if (incarnation > e.incarnation) e.incarnation = incarnation;
    return true;
  }
  if (incarnation > e.incarnation) {
    e.incarnation = incarnation;
    e.state = state;
    return true;
  }
  if (incarnation == e.incarnation && state == NodeState::kSuspect &&
      e.state == NodeState::kAlive) {
    e.state = NodeState::kSuspect;
    return true;
  }
  return false;  // stale gossip: older incarnation, or Alive vs Suspect
}

MembershipEntry MembershipTable::get(size_t node) const {
  check_arg(node < entries_.size(), "MembershipTable: node out of range");
  std::lock_guard<std::mutex> lk(mu_);
  return entries_[node];
}

std::vector<size_t> MembershipTable::live() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<size_t> out;
  for (size_t k = 0; k < entries_.size(); ++k)
    if (entries_[k].state != NodeState::kDead) out.push_back(k);
  return out;
}

size_t rendezvous_pick(uint64_t client_id,
                       const std::vector<size_t>& nodes) {
  check_arg(!nodes.empty(), "rendezvous_pick: empty node set");
  // Mixing the node id through splitmix64 first decorrelates the per-
  // node hash streams; xor alone would make neighbouring ids collide.
  const auto weight = [client_id](size_t node) {
    return splitmix64(client_id ^ splitmix64(static_cast<uint64_t>(node) +
                                             0x9e3779b97f4a7c15ull));
  };
  size_t best = nodes[0];
  uint64_t best_w = weight(best);
  for (size_t i = 1; i < nodes.size(); ++i) {
    const uint64_t w = weight(nodes[i]);
    if (w > best_w) {
      best_w = w;
      best = nodes[i];
    }
  }
  return best;
}

// ------------------------------------------------------------- lifecycle

FleetRouter::FleetRouter(core::MtlSplitModel& prototype,
                         sc::DeviceProfile edge, sc::DeviceProfile server,
                         FleetConfig cfg)
    : cfg_(std::move(cfg)), membership_(cfg_.nodes) {
  check_arg(cfg_.nodes >= 1, "FleetRouter: nodes must be >= 1");
  check_arg(cfg_.replicas_per_node >= 1,
            "FleetRouter: replicas_per_node must be >= 1");
  check_arg(static_cast<bool>(cfg_.make_replica),
            "FleetRouter: make_replica is required");
  check_arg(cfg_.swim.ping_interval_us >= 1,
            "FleetRouter: ping_interval_us must be >= 1");
  check_arg(cfg_.swim.suspect_after >= 1,
            "FleetRouter: suspect_after must be >= 1");
  check_arg(cfg_.swim.dead_after >= 1,
            "FleetRouter: dead_after must be >= 1");
  check_arg(cfg_.max_failovers >= 0,
            "FleetRouter: max_failovers must be >= 0");

  submitted_c_ = &registry_.counter("fleet/submitted");
  settled_value_c_ = &registry_.counter("fleet/settled_value");
  settled_error_c_ = &registry_.counter("fleet/settled_error");
  failovers_c_ = &registry_.counter("fleet/failovers");
  deaths_c_ = &registry_.counter("fleet/deaths");
  reminted_c_ = &registry_.counter("fleet/replicas_reminted");
  probes_sent_c_ = &registry_.counter("fleet/probes_sent");
  acks_c_ = &registry_.counter("fleet/acks_received");
  live_nodes_g_ = &registry_.gauge("fleet/live_nodes");

  serve::ServeConfig node_serve = cfg_.serve;
  if (node_serve.autoscale.enabled && !node_serve.autoscale.make_replica)
    node_serve.autoscale.make_replica = cfg_.make_replica;

  for (size_t k = 0; k < cfg_.nodes; ++k) {
    auto n = std::make_unique<Node>();
    std::vector<core::MtlSplitModel*> raw;
    for (size_t r = 0; r < cfg_.replicas_per_node; ++r) {
      auto model = cfg_.make_replica();
      check_arg(model != nullptr, "FleetRouter: make_replica returned null");
      model->set_training(false);
      core::copy_model_state(*model, prototype);
      raw.push_back(model.get());
      n->models.push_back(std::move(model));
    }
    // Per-node seeds keep every node's wire RNG stream independent but
    // deterministic, so a fleet run replays bit-for-bit.
    sc::ChannelConfig data_cfg = cfg_.data_link;
    data_cfg.seed += 7919ull * (k + 1);
    sc::Channel data(data_cfg);
    n->server = std::make_unique<serve::ScServer>(raw, data, edge, server,
                                                  node_serve);
    sc::ChannelConfig ctrl_cfg = cfg_.control_link;
    ctrl_cfg.seed += 104729ull * (k + 1);
    n->control = std::make_unique<sc::Channel>(ctrl_cfg);

    const std::string prefix = "fleet/node" + std::to_string(k) + "/";
    n->state_g = &registry_.gauge(prefix + "state");
    n->incarnation_g = &registry_.gauge(prefix + "incarnation");
    n->replicas_g = &registry_.gauge(prefix + "replicas");
    n->submitted_c = &registry_.counter(prefix + "submitted");
    n->probes_missed_c = &registry_.counter(prefix + "probes_missed");
    nodes_.push_back(std::move(n));
    publish_node_gauges(k);
  }
  live_nodes_g_->set(static_cast<double>(nodes_.size()));

  prober_ = std::thread([this] { prober_loop(); });
}

FleetRouter::~FleetRouter() { shutdown(); }

void FleetRouter::shutdown() {
  if (stopped_.exchange(true)) return;
  {
    // Fence: a sleeper that read stopped_ == false must be inside the
    // wait before the notify, or it would sleep one full period.
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  for (auto& t : reapers_)
    if (t.joinable()) t.join();
  // Live nodes drain every accepted request, so every live reply has
  // fired; killed nodes join their threads too (idempotent if a reaper
  // already did).
  for (auto& n : nodes_) n->server->shutdown();
  for (size_t k = 0; k < nodes_.size(); ++k) {
    Node& n = *nodes_[k];
    std::lock_guard<std::mutex> lk(n.mu);
    n.accepting = false;
    if (!n.killed.load(std::memory_order_acquire)) continue;
    // Black-hole contract: a killed node's answers are lost even if its
    // threads computed them before the drain.
    for (auto& [id, p] : n.pending) {
      p.out.set_exception(std::make_exception_ptr(NodeFailedError(
          k, "fleet: node " + std::to_string(k) + " killed at shutdown")));
      settled_error_c_->inc();
    }
    n.pending.clear();
  }
}

// ------------------------------------------------------------ data plane

std::future<sc::InferenceResult> FleetRouter::submit(Tensor x,
                                                     FleetSubmitOptions opts) {
  if (stopped_.load(std::memory_order_acquire))
    throw std::runtime_error("FleetRouter: submit after shutdown");
  Pending p;
  p.x = std::move(x);  // retained for transparent re-submit after a death
  p.opts = opts.base;
  p.idempotent = opts.idempotent;
  p.failovers_left = cfg_.max_failovers;
  std::future<sc::InferenceResult> out = p.out.get_future();
  if (!place(p, submitted_c_))
    throw NodeFailedError(nodes_.size(), "fleet: no live node to route to");
  return out;
}

bool FleetRouter::place(Pending& p, telemetry::Counter* placed) {
  Tensor x = p.x;
  const serve::SubmitOptions opts = p.opts;
  // One retry per node covers the race where the pick dies between
  // live() and the lock; rendezvous never re-picks a dead node.
  for (size_t attempt = 0; attempt <= nodes_.size(); ++attempt) {
    const std::vector<size_t> live = membership_.live();
    if (live.empty()) return false;
    Node& n = *nodes_[rendezvous_pick(opts.client_id, live)];
    uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lk(n.mu);
      if (!n.accepting) continue;
      id = n.next_id++;
      n.pending.emplace(id, std::move(p));
    }
    placed->inc();
    n.submitted_c->inc();
    // Unlocked: the reply takes n.mu, and a Block-policy node's submit
    // waits for a worker that may be replying.
    try {
      n.server->submit(std::move(x), opts,
                       [this, &n, id](std::exception_ptr err,
                                      sc::InferenceResult value) {
                         settle(n, id, std::move(err), std::move(value));
                       });
    } catch (...) {
      settle(n, id, std::current_exception(), {});
    }
    return true;
  }
  return false;
}

size_t FleetRouter::route(uint64_t client_id) const {
  const std::vector<size_t> live = membership_.live();
  if (live.empty())
    throw NodeFailedError(nodes_.size(), "fleet: no live node to route to");
  return rendezvous_pick(client_id, live);
}

size_t FleetRouter::node_replicas(size_t k) const {
  check_arg(k < nodes_.size(), "FleetRouter: node out of range");
  return nodes_[k]->server->num_workers();
}

const serve::ScServer& FleetRouter::node_server(size_t k) const {
  check_arg(k < nodes_.size(), "FleetRouter: node out of range");
  return *nodes_[k]->server;
}

void FleetRouter::kill_node(size_t k) {
  check_arg(k < nodes_.size(), "FleetRouter: node out of range");
  // Black-hole, not shutdown: the server's threads keep running (they
  // are the "unreachable process"), but no answer escapes — its replies
  // are dropped and the prober stops getting acks. Detection and
  // cleanup are the SWIM layer's job, exactly as with a real crash.
  nodes_[k]->killed.store(true, std::memory_order_release);
}

void FleetRouter::settle(Node& n, uint64_t id, std::exception_ptr err,
                         sc::InferenceResult value) {
  std::promise<sc::InferenceResult> out;
  {
    std::lock_guard<std::mutex> lk(n.mu);
    // A killed node's answer never escapes, and an entry declare_dead
    // orphaned is no longer this node's to settle.
    const auto it = n.pending.find(id);
    if (n.killed.load(std::memory_order_acquire) || it == n.pending.end())
      return;
    out = std::move(it->second.out);
    n.pending.erase(it);
  }
  // Typed serve-layer errors (deadline, rejection, wire) pass through
  // unchanged — the fleet only re-writes *node-death* outcomes.
  if (err) {
    out.set_exception(std::move(err));
    settled_error_c_->inc();
  } else {
    out.set_value(std::move(value));
    settled_value_c_->inc();
  }
}

// ---------------------------------------------------------- SWIM prober

void FleetRouter::prober_loop() {
  uint32_t seq = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> wl(wake_mu_);
      wake_cv_.wait_for(wl,
                        std::chrono::microseconds(cfg_.swim.ping_interval_us),
                        [this] {
                          return stopped_.load(std::memory_order_acquire);
                        });
    }
    if (stopped_.load(std::memory_order_acquire)) return;
    for (size_t k = 0; k < nodes_.size(); ++k) {
      if (membership_.get(k).state == NodeState::kDead) continue;
      Node& n = *nodes_[k];
      probes_sent_c_->inc();
      if (probe_node(k, ++seq)) {
        acks_c_->inc();
        n.misses = 0;
      } else {
        ++n.misses;
        n.probes_missed_c->inc();
        if (n.misses >= cfg_.swim.suspect_after + cfg_.swim.dead_after) {
          declare_dead(k);
        } else if (n.misses >= cfg_.swim.suspect_after) {
          membership_.apply(k, NodeState::kSuspect,
                            membership_.get(k).incarnation);
        }
      }
      publish_node_gauges(k);
    }
    live_nodes_g_->set(static_cast<double>(membership_.live().size()));
  }
}

bool FleetRouter::probe_node(size_t k, uint32_t seq) {
  Node& n = *nodes_[k];
  const MembershipEntry e = membership_.get(k);
  sc::PingFrame ping;
  ping.type = sc::PingType::kPing;
  ping.seq = seq;
  ping.node = k;
  ping.incarnation = e.state == NodeState::kSuspect ? e.incarnation
                                                    : sc::kNotSuspected;
  const auto delivered = n.control->transmit(sc::encode_ping(ping));
  const auto got = sc::decode_ping(delivered);
  if (!got || got->type != sc::PingType::kPing || got->seq != seq)
    return false;  // probe erased or corrupted on the wire
  if (n.killed.load(std::memory_order_acquire))
    return false;  // no process left to answer

  // Responder side of the simulated node. SWIM refutation: a node that
  // learns it is suspected at incarnation i answers with i+1, which
  // outranks the suspicion at every observer.
  uint64_t inc = n.self_incarnation;
  if (got->incarnation != sc::kNotSuspected && got->incarnation >= inc)
    inc = got->incarnation + 1;
  n.self_incarnation = inc;
  sc::PingFrame ack;
  ack.type = sc::PingType::kAck;
  ack.seq = seq;
  ack.node = k;
  ack.incarnation = inc;
  const auto back = n.control->transmit(sc::encode_ping(ack));
  const auto got_ack = sc::decode_ping(back);
  if (!got_ack || got_ack->type != sc::PingType::kAck || got_ack->seq != seq)
    return false;  // ack lost on the way back
  membership_.apply(k, NodeState::kAlive, got_ack->incarnation);
  return true;
}

void FleetRouter::declare_dead(size_t k) {
  Node& n = *nodes_[k];
  membership_.apply(k, NodeState::kDead, membership_.get(k).incarnation);
  deaths_c_->inc();
  std::map<uint64_t, Pending> orphans;
  {
    std::lock_guard<std::mutex> lk(n.mu);
    // Also black-holes a falsely-declared node (alive but partitioned):
    // once its tenants fail over, a late answer surfacing would settle
    // them twice — declared dead means silenced, killed or not.
    n.killed.store(true, std::memory_order_release);
    n.accepting = false;
    orphans.swap(n.pending);
  }
  // Restore capacity before re-routing the orphans onto the survivors.
  if (cfg_.rebuild) rebuild_from(k);
  for (auto& [id, p] : orphans) failover(std::move(p), k);
  // The dead server's threads are reaped off the prober thread: shutdown
  // joins workers, which can take a batch's worth of time.
  reapers_.emplace_back([&n] { n.server->shutdown(); });
}

void FleetRouter::rebuild_from(size_t dead) {
  const size_t lost = nodes_[dead]->server->num_workers();
  const std::vector<size_t> survivors = membership_.live();
  if (lost == 0 || survivors.empty()) return;
  size_t reminted = 0;
  for (size_t i = 0; i < lost; ++i) {
    const size_t t = survivors[i % survivors.size()];
    // add_replicas copies weights bitwise from the survivor's replica 0,
    // which traces back to the same prototype — the rebuilt fleet serves
    // identical logits.
    reminted += nodes_[t]->server->add_replicas(1, cfg_.make_replica);
  }
  reminted_c_->add(static_cast<int64_t>(reminted));
}

void FleetRouter::failover(Pending p, size_t dead) {
  if (p.idempotent && p.failovers_left-- > 0 && place(p, failovers_c_))
    return;
  p.out.set_exception(std::make_exception_ptr(NodeFailedError(
      dead,
      "fleet: node " + std::to_string(dead) + " died before answering")));
  settled_error_c_->inc();
}

// ------------------------------------------------------------- telemetry

void FleetRouter::publish_node_gauges(size_t k) {
  const MembershipEntry e = membership_.get(k);
  Node& n = *nodes_[k];
  n.state_g->set(static_cast<double>(e.state));
  n.incarnation_g->set(static_cast<double>(e.incarnation));
  n.replicas_g->set(e.state == NodeState::kDead
                        ? 0.0
                        : static_cast<double>(n.server->num_workers()));
}

FleetStats FleetRouter::stats() const {
  FleetStats s;
  s.submitted = submitted_c_->value();
  s.settled_value = settled_value_c_->value();
  s.settled_error = settled_error_c_->value();
  s.failovers = failovers_c_->value();
  s.deaths = deaths_c_->value();
  s.replicas_reminted = reminted_c_->value();
  s.probes_sent = probes_sent_c_->value();
  s.acks_received = acks_c_->value();
  return s;
}

}  // namespace mtlsplit::fleet
