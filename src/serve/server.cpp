#include "serve/server.hpp"

#include "tensor/tensor_ops.hpp"

namespace mtlsplit::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t splitmix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ScServer::ScServer(std::vector<core::MtlSplitModel*> replicas,
                   const sc::Channel& link, sc::DeviceProfile edge,
                   sc::DeviceProfile server, ServeConfig cfg)
    : cfg_(std::move(cfg)), edge_(std::move(edge)), server_(std::move(server)) {
  check_arg(!replicas.empty(), "ScServer: need at least one model replica");
  // Channel sessions are non-copyable (they own RNG + counter state a
  // copy would alias); the fork source is rebuilt from the link's config.
  base_link_ = std::make_unique<sc::Channel>(link.config());
  std::vector<sc::Channel*> sessions;
  sessions.reserve(replicas.size());
  owned_boot_sessions_.reserve(replicas.size());
  for (size_t w = 0; w < replicas.size(); ++w) {
    owned_boot_sessions_.push_back(
        std::make_unique<sc::Channel>(link.fork(w)));
    sessions.push_back(owned_boot_sessions_.back().get());
  }
  next_session_ = replicas.size();
  start(replicas, sessions);
}

ScServer::ScServer(std::vector<core::MtlSplitModel*> replicas,
                   std::vector<sc::Channel*> sessions, sc::DeviceProfile edge,
                   sc::DeviceProfile server, ServeConfig cfg)
    : cfg_(std::move(cfg)), edge_(std::move(edge)), server_(std::move(server)) {
  check_arg(!replicas.empty(), "ScServer: need at least one model replica");
  check_arg(sessions.size() == replicas.size(),
            "ScServer: need exactly one channel session per replica");
  start(replicas, sessions);
}

void ScServer::start(std::vector<core::MtlSplitModel*>& replicas,
                     std::vector<sc::Channel*>& sessions) {
  check_arg(cfg_.batching.max_batch_size >= 1,
            "ScServer: max_batch_size must be >= 1");
  check_arg(cfg_.idle_poll_us >= 1, "ScServer: idle_poll_us must be >= 1");
  const size_t n = replicas.size();
  const size_t per_shard =
      cfg_.replicas_per_shard == 0 ? n : cfg_.replicas_per_shard;
  check_arg(per_shard >= 1 && per_shard <= n,
            "ScServer: replicas_per_shard must be in [1, num_replicas]");
  const size_t num_shards = (n + per_shard - 1) / per_shard;
  const AutoscaleConfig& as = cfg_.autoscale;
  if (as.enabled) {
    check_arg(base_link_ != nullptr,
              "ScServer: autoscaling requires the channel-fork constructor "
              "(injected sessions cannot be forked for minted replicas)");
    check_arg(static_cast<bool>(as.make_replica),
              "ScServer: autoscaling requires AutoscaleConfig::make_replica");
    check_arg(as.min_replicas >= 1 && as.max_replicas >= as.min_replicas,
              "ScServer: need 1 <= min_replicas <= max_replicas");
    check_arg(per_shard <= as.max_replicas,
              "ScServer: initial replicas per shard exceed max_replicas");
    check_arg(as.interval_us >= 1000,
              "ScServer: autoscale interval_us must be >= 1000");
    check_arg(as.hysteresis_ticks >= 1,
              "ScServer: hysteresis_ticks must be >= 1");
    check_arg(as.scale_up_backlog > as.scale_down_backlog,
              "ScServer: scale_up_backlog must exceed scale_down_backlog");
  }
  if (cfg_.slo.enabled)
    check_arg(cfg_.admission.capacity >= 1,
              "ScServer: SLO control needs a bounded queue "
              "(admission.capacity >= 1)");
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_.admission));
    shards_.back()->queue.bind_telemetry(
        registry_, "serve/shard" + std::to_string(s) + "/queue");
  }
  stats_ = std::make_unique<StatsCollector>(&registry_, num_shards);
  up_ticks_.assign(num_shards, 0);
  down_ticks_.assign(num_shards, 0);
  prototype_ = replicas[0];
  slo_scale_up_backlog_.store(as.scale_up_backlog, std::memory_order_relaxed);

  // All replicas share weights bitwise (copy_model_state), so one plan
  // cache serves every worker and every future minted replica: the first
  // request compiles, the rest reuse the immutable plan.
  if (!cfg_.deployment.plan_cache)
    cfg_.deployment.plan_cache = std::make_shared<graph::PlanCache>();

  workers_.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    check_arg(replicas[w] != nullptr, "ScServer: null model replica");
    check_arg(sessions[w] != nullptr, "ScServer: null channel session");
    replicas[w]->set_training(false);
    auto slot = std::make_unique<Worker>();
    slot->shard = w / per_shard;
    sessions[w]->bind_telemetry(
        registry_, "serve/shard" + std::to_string(slot->shard) + "/link");
    bound_sessions_.push_back(sessions[w]);
    slot->deployment = std::make_unique<sc::ScDeployment>(
        *replicas[w], *sessions[w], edge_, server_, cfg_.deployment);
    workers_.push_back(std::move(slot));
  }
  // Single-threaded still: no worker/controller thread exists yet.
  update_replica_gauges_locked();
  if (cfg_.slo.enabled)
    slo_ = std::make_unique<SloController>(cfg_.slo, cfg_.admission.capacity,
                                           as.scale_up_backlog, registry_);
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  }
  if (as.enabled) controller_ = std::thread([this] { autoscale_loop(); });
  if (slo_) slo_thread_ = std::thread([this] { slo_loop(); });
}

ScServer::~ScServer() { shutdown(); }

size_t ScServer::route(uint64_t client_id) const {
  const size_t n = shards_.size();
  if (n == 1) return 0;
  if (cfg_.sharding == ShardingPolicy::kHashClient) {
    const size_t pinned = splitmix64(client_id) % n;
    if (shards_[pinned]->live.load(std::memory_order_relaxed) > 0)
      return pinned;
    // The hashed shard has no active worker (every slot retired or
    // parked mid-scale-down): pinning the tenant there would strand its
    // requests in a queue nothing pops. Fall through to the least-loaded
    // live shard; affinity resumes once the shard has a worker again.
  }
  // Least-loaded: fewest outstanding requests (queued + in service),
  // preferring shards with at least one active worker. When none reports
  // live (startup/shutdown transient), fall back to load alone — pops
  // still drain every queue at shutdown.
  size_t best_live = n, best_any = 0;
  int64_t best_live_load = std::numeric_limits<int64_t>::max();
  int64_t best_any_load = std::numeric_limits<int64_t>::max();
  for (size_t s = 0; s < n; ++s) {
    const int64_t load = static_cast<int64_t>(shards_[s]->queue.size()) +
                         shards_[s]->busy.load(std::memory_order_relaxed);
    if (load < best_any_load) {
      best_any_load = load;
      best_any = s;
    }
    if (shards_[s]->live.load(std::memory_order_relaxed) > 0 &&
        load < best_live_load) {
      best_live_load = load;
      best_live = s;
    }
  }
  return best_live < n ? best_live : best_any;
}

std::future<sc::InferenceResult> ScServer::submit(Tensor x,
                                                  SubmitOptions opts) {
  stats_->on_submit();
  return shards_[route(opts.client_id)]->queue.submit(std::move(x), opts);
}

std::vector<std::future<sc::InferenceResult>> ScServer::submit_stream(
    Tensor x, SubmitOptions opts) {
  stats_->on_submit();
  return shards_[route(opts.client_id)]->queue.submit_stream(std::move(x),
                                                             opts);
}

void ScServer::shutdown() {
  if (stopped_.exchange(true)) return;
  {
    // Fence against the controllers' predicate checks so the notify below
    // cannot slip between their stopped_ read and their wait.
    std::lock_guard<std::mutex> lk(scale_mu_);
  }
  scale_cv_.notify_all();
  if (controller_.joinable()) controller_.join();
  if (slo_thread_.joinable()) slo_thread_.join();
  for (auto& shard : shards_) shard->queue.close();
  // The controller is joined: workers_ can no longer grow or unpark.
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // Every thread that wrote wire telemetry is gone; detach injected
  // sessions so callers keeping them alive past the server (and its
  // registry) cannot write into freed metrics.
  for (sc::Channel* ch : bound_sessions_) ch->unbind_telemetry();
  bound_sessions_.clear();
}

ServeStats ScServer::stats() const {
  // The whole snapshot — queue tallies, wire counters, replica census —
  // is a read of the telemetry tree; no bespoke merging left here.
  return stats_->snapshot();
}

size_t ScServer::num_workers() const {
  std::lock_guard<std::mutex> lk(scale_mu_);
  size_t n = 0;
  for (const auto& w : workers_)
    if (!w->parked && !w->retired.load(std::memory_order_acquire)) ++n;
  return n;
}

void ScServer::worker_loop(Worker& w) {
  Shard& own = *shards_[w.shard];
  DynamicBatcher batcher(own.queue, cfg_.batching, &registry_,
                         "serve/shard" + std::to_string(w.shard) +
                             "/batcher");
  std::vector<Request> batch;
  const auto idle = std::chrono::microseconds(cfg_.idle_poll_us);
  // The bounded wait only pays for itself when an idle wake can lead to
  // an action: noticing retirement (autoscaler on) or stealing (some
  // sibling to rob). Otherwise block on the own queue — an idle worker
  // then costs nothing, as before this layer existed.
  const bool idle_can_act =
      cfg_.autoscale.enabled ||
      (cfg_.work_stealing && shards_.size() > 1);
  while (!w.retired.load(std::memory_order_acquire)) {
    const bool alive = idle_can_act ? batcher.next_batch_for(batch, idle)
                                    : batcher.next_batch(batch);
    if (!batch.empty()) {
      serve_batch(w, own, batch);
      continue;
    }
    if (!alive) break;  // own queue closed and fully drained
    if (cfg_.work_stealing && try_steal(w, batch)) {
      stats_->on_stolen(static_cast<int64_t>(batch.size()));
      serve_batch(w, own, batch);
    }
  }
  // Park the slot: the autoscaler may resurrect it with a fresh thread.
  std::lock_guard<std::mutex> lk(scale_mu_);
  w.parked = true;
  update_replica_gauges_locked();
}

bool ScServer::try_steal(const Worker& w, std::vector<Request>& out) {
  out.clear();
  if (shards_.size() < 2) return false;
  // Victim: the sibling with the deepest non-empty backlog.
  size_t victim = shards_.size();
  size_t best_depth = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s == w.shard) continue;
    const size_t depth = shards_[s]->queue.size();
    if (depth > best_depth) {
      best_depth = depth;
      victim = s;
    }
  }
  if (victim == shards_.size()) return false;
  // Try-pop up to one batch. pop respects priority/DRR order and is the
  // only way a request leaves a queue, so a stolen request is settled
  // exactly once like any other.
  RequestQueue& q = shards_[victim]->queue;
  const auto asap = std::chrono::steady_clock::now();
  Request r;
  while (static_cast<int64_t>(out.size()) < cfg_.batching.max_batch_size &&
         q.pop_until(r, asap))
    out.push_back(std::move(r));
  return !out.empty();
}

void ScServer::serve_batch(Worker& w, Shard& sh, std::vector<Request>& batch) {
  // Last deadline gate: requests that aged out in the coalescing window
  // settle with DeadlineExceededError and never reach the model.
  const size_t dead =
      expire_overdue(batch, std::chrono::steady_clock::now());
  if (dead > 0) stats_->on_expired(static_cast<int64_t>(dead));
  if (batch.empty()) return;
  sh.busy.fetch_add(static_cast<int64_t>(batch.size()),
                    std::memory_order_relaxed);
  // Streaming requests run the pipelined path one by one; everything
  // else rides the coalesced infer_batch.
  std::vector<Request> plain;
  std::vector<Request> streams;
  plain.reserve(batch.size());
  for (Request& r : batch)
    (r.streaming ? streams : plain).push_back(std::move(r));
  if (!plain.empty()) serve_plain(w, plain);
  for (Request& r : streams) serve_stream_request(w, r);
  sh.busy.fetch_sub(static_cast<int64_t>(batch.size()),
                    std::memory_order_relaxed);
}

void ScServer::serve_plain(Worker& w, std::vector<Request>& batch) {
  // Row r of the server batch belongs to batch[owner_of_row[r]]; a
  // multi-sample request owns a run of consecutive rows.
  std::vector<int64_t> rows_of;
  std::vector<Tensor> parts;
  rows_of.reserve(batch.size());
  parts.reserve(batch.size());
  for (Request& r : batch) {
    rows_of.push_back(r.x.size(0));
    parts.push_back(std::move(r.x));
  }
  size_t settled = 0;      // requests whose promise has been fulfilled
  bool counted = false;    // stats_->on_batch already recorded this batch
  bool infer_ran = false;  // infer_batch was entered (its traffic tally is live)
  try {
    Tensor joined =
        parts.size() == 1 ? std::move(parts[0]) : ops::concat_batch(parts);
    infer_ran = true;  // infer_batch resets last_traffic() on entry
    sc::BatchResult br = w.deployment->infer_batch(joined);
    stats_->on_batch(static_cast<int64_t>(batch.size()), br.wire, w.shard);
    counted = true;
    size_t row = 0;
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      Request& r = batch[i];
      // infer_batch treats every sample as its own request; a client that
      // submitted k samples gets them merged back: all rows must succeed,
      // logits are re-concatenated, latency components accumulate.
      const size_t rows = static_cast<size_t>(rows_of[i]);
      std::exception_ptr err;
      for (size_t k = 0; k < rows && !err; ++k)
        err = br.items[row + k].error;
      if (err) {
        r.promise.set_exception(err);
        stats_->on_request(seconds_between(r.enqueued_at, now), false);
      } else if (rows == 1) {
        r.promise.set_value(std::move(br.items[row].result));
        stats_->on_request(seconds_between(r.enqueued_at, now), true);
      } else {
        sc::InferenceResult merged;
        merged.latency = br.items[row].result.latency;
        const size_t tasks = br.items[row].result.logits.size();
        for (size_t j = 0; j < tasks; ++j) {
          std::vector<Tensor> rows_j;
          rows_j.reserve(rows);
          for (size_t k = 0; k < rows; ++k)
            rows_j.push_back(std::move(br.items[row + k].result.logits[j]));
          merged.logits.push_back(ops::concat_batch(rows_j));
        }
        for (size_t k = 1; k < rows; ++k) {
          const sc::LatencyBreakdown& lat = br.items[row + k].result.latency;
          merged.latency.edge_compute_s += lat.edge_compute_s;
          merged.latency.server_compute_s += lat.server_compute_s;
          merged.latency.wire += lat.wire;
        }
        r.promise.set_value(std::move(merged));
        stats_->on_request(seconds_between(r.enqueued_at, now), true);
      }
      settled = i + 1;
      row += rows;
    }
  } catch (...) {
    // Whole-batch failure (e.g. a shape mismatch between coalesced
    // requests, or an allocation failure mid-scatter): every owner whose
    // promise is still open learns why. Requests settled before the
    // throw keep their results — touching their promise again would
    // raise std::future_error and kill the worker.
    const std::exception_ptr err = std::current_exception();
    if (!counted) {
      // The wire work already happened even though the batch failed: a
      // post-wire throw (decode/scatter) rode real bytes, retransmits and
      // FEC repairs, and dropping them would understate link spend. The
      // deployment's tally survives the throw; read it back the same way
      // the stream path does. A pre-infer throw (shape mismatch during
      // concat) genuinely moved nothing, so the tally is zero.
      stats_->on_batch(static_cast<int64_t>(batch.size()),
                       infer_ran ? w.deployment->last_traffic()
                                 : sc::WireTally{},
                       w.shard);
    }
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = settled; i < batch.size(); ++i) {
      batch[i].promise.set_exception(err);
      stats_->on_request(seconds_between(batch[i].enqueued_at, now), false);
    }
  }
}

void ScServer::serve_stream_request(Worker& w, Request& r) {
  const auto rows = static_cast<size_t>(r.rows());
  std::vector<char> emitted;
  bool ok = true;
  bool stream_ran = false;  // guards against reading a stale tally
  // Everything that can throw — including the per-row slicing — stays
  // inside the try: an escaped exception would leave chunk promises
  // broken and kill the worker thread.
  try {
    emitted.assign(rows, 0);
    std::vector<Tensor> items;
    items.reserve(rows);
    if (rows == 1) {
      items.push_back(std::move(r.x));
    } else {
      for (size_t i = 0; i < rows; ++i)
        items.push_back(ops::slice_batch(r.x, static_cast<int64_t>(i),
                                         static_cast<int64_t>(i) + 1));
    }
    stream_ran = true;  // infer_stream resets its tally even on a throw
    (void)w.deployment->infer_stream(
        items, [&](size_t i, sc::InferenceResult& item) {
          r.chunk_promises[i].set_value(std::move(item));
          emitted[i] = 1;
        });
  } catch (...) {
    // The pipeline drained (or never started): chunks emitted before the
    // failure keep their values, every later chunk learns the error.
    ok = false;
    const std::exception_ptr err = std::current_exception();
    for (size_t i = 0; i < rows; ++i)
      if (i >= emitted.size() || !emitted[i])
        r.chunk_promises[i].set_exception(err);
  }
  const auto now = std::chrono::steady_clock::now();
  // Traffic comes from the deployment's stream tally, not the emitted
  // chunks: a message whose decode failed still crossed the wire (and
  // consumed retransmits), and the stats must say so.
  stats_->on_batch(
      1, stream_ran ? w.deployment->last_traffic() : sc::WireTally{},
      w.shard);
  stats_->on_request(seconds_between(r.enqueued_at, now), ok);
}

// ----------------------------------------------------------- autoscaler

size_t ScServer::active_workers_locked(size_t shard) const {
  size_t n = 0;
  for (const auto& w : workers_)
    if (w->shard == shard && !w->parked &&
        !w->retired.load(std::memory_order_acquire))
      ++n;
  return n;
}

void ScServer::scale_up_locked(size_t shard) {
  grow_locked(shard, cfg_.autoscale.make_replica);
}

void ScServer::grow_locked(
    size_t shard,
    const std::function<std::unique_ptr<core::MtlSplitModel>()>& make) {
  // Resurrect a parked slot first: its replica and channel session are
  // already weight-identical (weights are immutable for the server's
  // lifetime), so unparking costs one thread spawn.
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.shard == shard && w.parked) {
      if (w.thread.joinable()) w.thread.join();
      w.parked = false;
      w.retired.store(false, std::memory_order_release);
      Worker* raw = &w;
      w.thread = std::thread([this, raw] { worker_loop(*raw); });
      stats_->on_scale(true);
      update_replica_gauges_locked();
      return;
    }
  }
  // Mint a fresh replica: structurally-identical model from the factory,
  // weights copied bitwise from replica 0 (eval-mode forward never writes
  // parameters or buffers, so copying from a serving prototype is safe),
  // and a forked channel session of its own.
  auto model = make();
  check_arg(model != nullptr,
            "ScServer: replica factory returned null");
  model->set_training(false);
  core::copy_model_state(*model, *prototype_);
  auto w = std::make_unique<Worker>();
  w->shard = shard;
  w->owned_session =
      std::make_unique<sc::Channel>(base_link_->fork(next_session_++));
  w->minted_model = std::move(model);
  w->deployment = std::make_unique<sc::ScDeployment>(
      *w->minted_model, *w->owned_session, edge_, server_, cfg_.deployment);
  w->owned_session->bind_telemetry(
      registry_, "serve/shard" + std::to_string(shard) + "/link");
  bound_sessions_.push_back(w->owned_session.get());
  Worker* raw = w.get();
  raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  workers_.push_back(std::move(w));
  stats_->on_scale(true);
  update_replica_gauges_locked();
}

void ScServer::scale_down_locked(size_t shard) {
  // Retire the most recently added active worker of the shard; it
  // finishes its current batch, stops popping, and parks.
  for (size_t i = workers_.size(); i-- > 0;) {
    Worker& w = *workers_[i];
    if (w.shard == shard && !w.parked &&
        !w.retired.load(std::memory_order_acquire)) {
      w.retired.store(true, std::memory_order_release);
      stats_->on_scale(false);
      update_replica_gauges_locked();
      return;
    }
  }
}

size_t ScServer::add_replicas(
    size_t n,
    const std::function<std::unique_ptr<core::MtlSplitModel>()>& factory) {
  const auto& make = factory ? factory : cfg_.autoscale.make_replica;
  check_arg(static_cast<bool>(make),
            "ScServer: add_replicas needs a factory (argument or "
            "AutoscaleConfig::make_replica)");
  check_arg(base_link_ != nullptr,
            "ScServer: add_replicas requires the channel-fork constructor");
  std::lock_guard<std::mutex> lk(scale_mu_);
  if (stopped_.load(std::memory_order_acquire)) return 0;
  size_t added = 0;
  for (; added < n; ++added) {
    // Fewest-active-shard placement keeps rebuilt capacity balanced.
    size_t best = 0;
    size_t best_active = active_workers_locked(0);
    for (size_t s = 1; s < shards_.size(); ++s) {
      const size_t active = active_workers_locked(s);
      if (active < best_active) {
        best_active = active;
        best = s;
      }
    }
    grow_locked(best, make);
  }
  return added;
}

bool ScServer::retire_replica(size_t shard) {
  check_arg(shard < shards_.size(),
            "ScServer: retire_replica shard out of range");
  std::lock_guard<std::mutex> lk(scale_mu_);
  for (size_t i = workers_.size(); i-- > 0;) {
    Worker& w = *workers_[i];
    if (w.shard == shard && !w.parked &&
        !w.retired.load(std::memory_order_acquire)) {
      w.retired.store(true, std::memory_order_release);
      stats_->on_scale(false);
      update_replica_gauges_locked();
      return true;
    }
  }
  return false;
}

void ScServer::try_scale_up(size_t shard) {
  // The controller thread must survive a failed scale event: minting can
  // throw (make_replica under memory pressure — exactly when scale-up
  // triggers — or a structurally-mismatched factory model). An escaped
  // exception here would std::terminate the whole process; instead the
  // event is dropped and the next tick retries.
  try {
    scale_up_locked(shard);
  } catch (...) {
    up_ticks_[shard] = 0;
  }
}

void ScServer::autoscale_loop() {
  const AutoscaleConfig& as = cfg_.autoscale;
  std::unique_lock<std::mutex> lk(scale_mu_);
  while (!stopped_.load(std::memory_order_acquire)) {
    scale_cv_.wait_for(lk, std::chrono::microseconds(as.interval_us),
                       [this] {
                         return stopped_.load(std::memory_order_acquire);
                       });
    if (stopped_.load(std::memory_order_acquire)) break;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t active = active_workers_locked(s);
      if (active < as.min_replicas) {
        // Below the floor (initial deployment smaller than min, or a
        // retirement raced a burst): converge without hysteresis.
        try_scale_up(s);
        continue;
      }
      const double backlog =
          static_cast<double>(shards_[s]->queue.size()) +
          static_cast<double>(
              shards_[s]->busy.load(std::memory_order_relaxed));
      const double per_replica = backlog / static_cast<double>(active);
      // The up-threshold is read through an atomic mirror: statically it is
      // AutoscaleConfig::scale_up_backlog, but the SLO controller (when
      // enabled) lowers it under violation pressure so the fleet grows
      // before the backlog alone would justify it.
      const double up_backlog =
          slo_scale_up_backlog_.load(std::memory_order_relaxed);
      if (per_replica >= up_backlog && active < as.max_replicas) {
        down_ticks_[s] = 0;
        if (++up_ticks_[s] >= as.hysteresis_ticks) {
          up_ticks_[s] = 0;
          try_scale_up(s);
        }
      } else if (per_replica <= as.scale_down_backlog &&
                 active > as.min_replicas) {
        up_ticks_[s] = 0;
        if (++down_ticks_[s] >= as.hysteresis_ticks) {
          down_ticks_[s] = 0;
          scale_down_locked(s);
        }
      } else {
        up_ticks_[s] = 0;
        down_ticks_[s] = 0;
      }
    }
  }
}

// -------------------------------------------------------- SLO controller

void ScServer::update_replica_gauges_locked() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const int64_t active = static_cast<int64_t>(active_workers_locked(s));
    shards_[s]->live.store(active, std::memory_order_relaxed);
    stats_->on_replicas(s, active);
  }
}

void ScServer::slo_loop() {
  std::unique_lock<std::mutex> lk(scale_mu_);
  while (!stopped_.load(std::memory_order_acquire)) {
    scale_cv_.wait_for(lk, std::chrono::microseconds(cfg_.slo.interval_us),
                       [this] {
                         return stopped_.load(std::memory_order_acquire);
                       });
    if (stopped_.load(std::memory_order_acquire)) break;
    // The tick itself runs unlocked: draining the window and publishing
    // gauges must not serialize against workers parking or the autoscaler.
    lk.unlock();
    const telemetry::HistSnapshot window = stats_->drain_latency_window();
    const SloController::Decision d = slo_->tick(window);
    if (d.acted) {
      for (auto& sh : shards_) sh->queue.set_capacity(d.depth_cap);
      slo_scale_up_backlog_.store(d.scale_up_backlog,
                                  std::memory_order_relaxed);
    }
    lk.lock();
  }
}

}  // namespace mtlsplit::serve
