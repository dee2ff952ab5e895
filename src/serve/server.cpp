#include "serve/server.hpp"

#include "tensor/tensor_ops.hpp"

namespace mtlsplit::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// How long an idle worker waits on the queue before it checks for
/// retirement; only the autoscaler retires workers, so without it an idle
/// worker blocks instead.
constexpr auto kIdlePoll = std::chrono::milliseconds(1);

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
  const size_t n = replicas.size();
  const AutoscaleConfig& as = cfg_.autoscale;
  if (as.enabled) {
    check_arg(base_link_ != nullptr,
              "ScServer: autoscaling requires the channel-fork constructor "
              "(injected sessions cannot be forked for minted replicas)");
    check_arg(static_cast<bool>(as.make_replica),
              "ScServer: autoscaling requires AutoscaleConfig::make_replica");
    check_arg(as.min_replicas >= 1 && as.max_replicas >= as.min_replicas,
              "ScServer: need 1 <= min_replicas <= max_replicas");
    check_arg(n <= as.max_replicas,
              "ScServer: initial replicas exceed max_replicas");
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
  queue_.bind_telemetry(registry_, kQueuePrefix + "/queue");
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
    sessions[w]->bind_telemetry(registry_, kQueuePrefix + "/link");
    bound_sessions_.push_back(sessions[w]);
    slot->deployment = std::make_unique<sc::ScDeployment>(
        *replicas[w], *sessions[w], edge_, server_, cfg_.deployment);
    workers_.push_back(std::move(slot));
  }
  // Single-threaded still: no worker/controller thread exists yet.
  update_replica_gauge_locked();
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

void ScServer::submit(Tensor x, SubmitOptions opts, Reply reply) {
  stats_.on_submit();
  queue_.submit(std::move(x), opts, std::move(reply));
}

std::future<sc::InferenceResult> ScServer::submit(Tensor x,
                                                  SubmitOptions opts) {
  stats_.on_submit();
  return queue_.submit(std::move(x), opts);
}

std::vector<std::future<sc::InferenceResult>> ScServer::submit_stream(
    Tensor x, SubmitOptions opts) {
  stats_.on_submit();
  return queue_.submit_stream(std::move(x), opts);
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
  queue_.close();
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
  return stats_.snapshot();
}

size_t ScServer::num_workers() const {
  std::lock_guard<std::mutex> lk(scale_mu_);
  return active_workers_locked();
}

void ScServer::worker_loop(Worker& w) {
  DynamicBatcher batcher(queue_, cfg_.batching, &registry_,
                         kQueuePrefix + "/batcher");
  std::vector<Request> batch;
  const bool poll = cfg_.autoscale.enabled;
  // A timed-out poll hands serve_batch an empty batch, which it ignores.
  while (!w.retired.load(std::memory_order_acquire) &&
         (poll ? batcher.next_batch_for(batch, kIdlePoll)
               : batcher.next_batch(batch)))
    serve_batch(w, batch);
  // Park the slot: the autoscaler may resurrect it with a fresh thread.
  std::lock_guard<std::mutex> lk(scale_mu_);
  w.parked = true;
  update_replica_gauge_locked();
}

void ScServer::serve_batch(Worker& w, std::vector<Request>& batch) {
  // Last deadline gate: requests that aged out in the coalescing window
  // settle with DeadlineExceededError and never reach the model.
  const size_t dead =
      expire_overdue(batch, std::chrono::steady_clock::now());
  if (dead > 0) stats_.on_expired(static_cast<int64_t>(dead));
  if (batch.empty()) return;
  busy_.fetch_add(static_cast<int64_t>(batch.size()),
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
  busy_.fetch_sub(static_cast<int64_t>(batch.size()),
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
  size_t settled = 0;      // requests whose reply has run
  bool counted = false;    // stats_.on_batch already recorded this batch
  bool infer_ran = false;  // infer_batch was entered (its traffic tally is live)
  try {
    Tensor joined =
        parts.size() == 1 ? std::move(parts[0]) : ops::concat_batch(parts);
    infer_ran = true;  // infer_batch resets last_traffic() on entry
    sc::BatchResult br = w.deployment->infer_batch(joined);
    stats_.on_batch(static_cast<int64_t>(batch.size()), br.wire);
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
        settle_error(r, err);
        stats_.on_request(seconds_between(r.enqueued_at, now), false);
      } else if (rows == 1) {
        settle_value(r, std::move(br.items[row].result));
        stats_.on_request(seconds_between(r.enqueued_at, now), true);
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
        settle_value(r, std::move(merged));
        stats_.on_request(seconds_between(r.enqueued_at, now), true);
      }
      settled = i + 1;
      row += rows;
    }
  } catch (...) {
    // Whole-batch failure (e.g. a shape mismatch between coalesced
    // requests, or an allocation failure mid-scatter): every owner whose
    // reply has not run learns why. Requests settled before the throw
    // keep their results — a reply runs exactly once.
    const std::exception_ptr err = std::current_exception();
    if (!counted) {
      // The wire work already happened even though the batch failed: a
      // post-wire throw (decode/scatter) rode real bytes, retransmits and
      // FEC repairs, and dropping them would understate link spend. The
      // deployment's tally survives the throw; read it back the same way
      // the stream path does. A pre-infer throw (shape mismatch during
      // concat) genuinely moved nothing, so the tally is zero.
      stats_.on_batch(static_cast<int64_t>(batch.size()),
                      infer_ran ? w.deployment->last_traffic()
                                : sc::WireTally{});
    }
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = settled; i < batch.size(); ++i) {
      settle_error(batch[i], err);
      stats_.on_request(seconds_between(batch[i].enqueued_at, now), false);
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
  stats_.on_batch(
      1, stream_ran ? w.deployment->last_traffic() : sc::WireTally{});
  stats_.on_request(seconds_between(r.enqueued_at, now), ok);
}

// ----------------------------------------------------------- autoscaler

size_t ScServer::active_workers_locked() const {
  size_t n = 0;
  for (const auto& w : workers_)
    if (!w->parked && !w->retired.load(std::memory_order_acquire)) ++n;
  return n;
}

void ScServer::grow_locked(
    const std::function<std::unique_ptr<core::MtlSplitModel>()>& make) {
  // Resurrect a parked slot first: its replica and channel session are
  // already weight-identical (weights are immutable for the server's
  // lifetime), so unparking costs one thread spawn.
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.parked) {
      if (w.thread.joinable()) w.thread.join();
      w.parked = false;
      w.retired.store(false, std::memory_order_release);
      Worker* raw = &w;
      w.thread = std::thread([this, raw] { worker_loop(*raw); });
      update_replica_gauge_locked();
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
  w->owned_session =
      std::make_unique<sc::Channel>(base_link_->fork(next_session_++));
  w->minted_model = std::move(model);
  w->deployment = std::make_unique<sc::ScDeployment>(
      *w->minted_model, *w->owned_session, edge_, server_, cfg_.deployment);
  w->owned_session->bind_telemetry(registry_, kQueuePrefix + "/link");
  bound_sessions_.push_back(w->owned_session.get());
  Worker* raw = w.get();
  raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  workers_.push_back(std::move(w));
  update_replica_gauge_locked();
}

void ScServer::scale_down_locked() {
  // Retire the most recently added active worker; it finishes its current
  // batch, stops popping, and parks.
  for (size_t i = workers_.size(); i-- > 0;) {
    Worker& w = *workers_[i];
    if (!w.parked && !w.retired.load(std::memory_order_acquire)) {
      w.retired.store(true, std::memory_order_release);
      stats_.on_scale(false);
      update_replica_gauge_locked();
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
  for (size_t i = 0; i < n; ++i) grow_locked(make);
  return n;
}

void ScServer::try_scale_up() {
  // The controller thread must survive a failed scale event: minting can
  // throw (make_replica under memory pressure — exactly when scale-up
  // triggers — or a structurally-mismatched factory model). An escaped
  // exception here would std::terminate the whole process; instead the
  // event is dropped and the next tick retries.
  try {
    grow_locked(cfg_.autoscale.make_replica);
    stats_.on_scale(true);
  } catch (...) {
    up_ticks_ = 0;
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
    const size_t active = active_workers_locked();
    if (active < as.min_replicas) {
      // Below the floor (initial deployment smaller than min, or a
      // retirement raced a burst): converge without hysteresis.
      try_scale_up();
      continue;
    }
    const double backlog =
        static_cast<double>(queue_.size()) +
        static_cast<double>(busy_.load(std::memory_order_relaxed));
    const double per_replica = backlog / static_cast<double>(active);
    // The up-threshold is read through an atomic mirror: statically it is
    // AutoscaleConfig::scale_up_backlog, but the SLO controller (when
    // enabled) lowers it under violation pressure so the fleet grows
    // before the backlog alone would justify it.
    const double up_backlog =
        slo_scale_up_backlog_.load(std::memory_order_relaxed);
    if (per_replica >= up_backlog && active < as.max_replicas) {
      down_ticks_ = 0;
      if (++up_ticks_ >= as.hysteresis_ticks) {
        up_ticks_ = 0;
        try_scale_up();
      }
    } else if (per_replica <= as.scale_down_backlog &&
               active > as.min_replicas) {
      up_ticks_ = 0;
      if (++down_ticks_ >= as.hysteresis_ticks) {
        down_ticks_ = 0;
        scale_down_locked();
      }
    } else {
      up_ticks_ = 0;
      down_ticks_ = 0;
    }
  }
}

// -------------------------------------------------------- SLO controller

void ScServer::update_replica_gauge_locked() {
  stats_.on_replicas(static_cast<int64_t>(active_workers_locked()));
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
    const telemetry::HistSnapshot window = stats_.drain_latency_window();
    const SloController::Decision d = slo_->tick(window);
    if (d.acted) {
      queue_.set_capacity(d.depth_cap);
      slo_scale_up_backlog_.store(d.scale_up_backlog,
                                  std::memory_order_relaxed);
    }
    lk.lock();
  }
}

}  // namespace mtlsplit::serve
