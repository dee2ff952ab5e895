// SLO lifecycle layer of the serving stack (DESIGN.md §8): request
// deadlines (admission / on-pop / pre-dispatch expiry, each settling
// exactly once), per-tenant token-bucket quotas above DRR, replica
// autoscaling between min/max with hysteresis, and cross-shard work
// stealing — all while served logits stay bitwise identical to
// sequential infer().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <stdexcept>
#include <thread>

#include "mtl/model_factory.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit {
namespace {

using namespace std::chrono_literals;

Tensor tiny_input(int64_t rows = 1) {
  return Tensor({rows, 1, 2, 2}, 0.25f);
}

sc::InferenceResult dummy_result() {
  sc::InferenceResult r;
  r.logits.push_back(Tensor({1, 2}, 1.0f));
  return r;
}

/// Gives hand-built request @p r a reply that fills the returned future,
/// as RequestQueue::submit does.
std::future<sc::InferenceResult> reply_future(serve::Request& r) {
  auto p = std::make_shared<std::promise<sc::InferenceResult>>();
  r.reply = [p](std::exception_ptr err, sc::InferenceResult value) {
    if (err) {
      p->set_exception(err);
    } else {
      p->set_value(std::move(value));
    }
  };
  return p->get_future();
}

/// Classifies a settled future: 0 = value, 1 = RejectedError (rejected),
/// 2 = RejectedError (shed), 3 = ThrottledError, 4/5/6 =
/// DeadlineExceededError at admission/queue/dispatch, 7 = other error.
/// get() throwing future_error (double settle) fails the test.
int settle_kind(std::future<sc::InferenceResult>& f) {
  try {
    (void)f.get();
    return 0;
  } catch (const serve::RejectedError& e) {
    return e.shed() ? 2 : 1;
  } catch (const serve::ThrottledError&) {
    return 3;
  } catch (const serve::DeadlineExceededError& e) {
    switch (e.phase()) {
      case serve::ExpiryPhase::kAdmission: return 4;
      case serve::ExpiryPhase::kQueue: return 5;
      case serve::ExpiryPhase::kDispatch: return 6;
    }
    return 7;
  } catch (const std::future_error& e) {
    ADD_FAILURE() << "future_error: settlement contract violated: "
                  << e.what();
    return 7;
  } catch (...) {
    return 7;
  }
}

// ------------------------------------------------------------- deadlines

TEST(Deadline, PreExpiredSettlesAtAdmission) {
  serve::RequestQueue q;
  auto f = q.submit(tiny_input(),
                    {.deadline = std::chrono::steady_clock::now() - 1ms});
  EXPECT_EQ(settle_kind(f), 4);  // kAdmission
  EXPECT_EQ(q.expired(), 1u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.accepted(), 0u);  // never occupied a queue slot
}

TEST(Deadline, QueuedRequestExpiresOnPop) {
  serve::RequestQueue q;
  auto f_dead = q.submit(tiny_input(), {.ttl = 1ms});
  auto f_live = q.submit(tiny_input());
  std::this_thread::sleep_for(15ms);
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(settle_kind(f_dead), 5);  // kQueue: purged before service
  serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f_live), 0);
  EXPECT_EQ(q.expired(), 1u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(Deadline, FullyExpiredBacklogDrainsWithoutServingAnything) {
  serve::RequestQueue q;
  std::vector<std::future<sc::InferenceResult>> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(q.submit(tiny_input(), {.ttl = 1ms}));
  std::this_thread::sleep_for(15ms);
  serve::Request r;
  EXPECT_FALSE(q.pop_until(r, std::chrono::steady_clock::now() + 5ms));
  for (auto& f : futs) EXPECT_EQ(settle_kind(f), 5);
  EXPECT_EQ(q.expired(), 3u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(Deadline, BlockedSubmitterExpiresInsteadOfWaitingForever) {
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kBlock, .capacity = 1});
  auto f_fill = q.submit(tiny_input());
  // The queue is full and nobody pops: the bounded wait must end at the
  // request's own deadline, not block forever.
  auto f = q.submit(tiny_input(), {.ttl = 30ms});
  EXPECT_EQ(settle_kind(f), 4);  // kAdmission: never admitted
  EXPECT_EQ(q.expired(), 1u);
  q.close();
  serve::Request r;
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f_fill), 0);
}

TEST(Deadline, StreamExpirySettlesEveryChunkFuture) {
  serve::RequestQueue q;
  auto chunks = q.submit_stream(
      tiny_input(3), {.deadline = std::chrono::steady_clock::now() - 1ms});
  ASSERT_EQ(chunks.size(), 3u);
  for (auto& c : chunks) EXPECT_EQ(settle_kind(c), 4);
  EXPECT_EQ(q.expired(), 1u);  // one request, however many chunks
}

TEST(Deadline, ExpireOverdueFiltersOnlyDeadRequestsPreservingOrder) {
  // The pre-dispatch gate, exercised deterministically: three hand-built
  // requests, the middle one dead.
  const auto now = std::chrono::steady_clock::now();
  std::vector<serve::Request> batch(3);
  std::vector<std::future<sc::InferenceResult>> futs;
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = i;
    batch[i].x = tiny_input();
    batch[i].deadline = i == 1
                            ? now - 1ms
                            : std::chrono::steady_clock::time_point::max();
    futs.push_back(reply_future(batch[i]));
  }
  EXPECT_EQ(serve::expire_overdue(batch, now), 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 2u);  // survivor order preserved
  EXPECT_EQ(settle_kind(futs[1]), 6);  // kDispatch
  for (size_t i : {0u, 2u}) {
    serve::settle_value(batch[i == 0 ? 0 : 1], dummy_result());
    EXPECT_EQ(settle_kind(futs[i]), 0);
  }
}

// ---------------------------------------------------------------- quotas

TEST(Quota, BurstBoundsBackToBackSubmissions) {
  serve::AdmissionConfig cfg;
  cfg.client_quota[7] = {.rate = 0.001, .burst = 2.0};  // ~never refills
  serve::RequestQueue q(cfg);
  auto f1 = q.submit(tiny_input(), {.client_id = 7});
  auto f2 = q.submit(tiny_input(), {.client_id = 7});
  auto f3 = q.submit(tiny_input(), {.client_id = 7});  // bucket empty
  auto f_other = q.submit(tiny_input(), {.client_id = 8});  // unlimited
  EXPECT_EQ(settle_kind(f3), 3);
  EXPECT_EQ(q.throttled(), 1u);
  EXPECT_EQ(q.size(), 3u);
  q.close();
  serve::Request r;
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f1), 0);
  EXPECT_EQ(settle_kind(f2), 0);
  EXPECT_EQ(settle_kind(f_other), 0);
}

TEST(Quota, CostIsRowsAndRetryAfterIsEstimated) {
  serve::AdmissionConfig cfg;
  cfg.client_quota[1] = {.rate = 1.0, .burst = 4.0};
  serve::RequestQueue q(cfg);
  auto f1 = q.submit(tiny_input(4), {.client_id = 1});  // drains the bucket
  auto f2 = q.submit(tiny_input(4), {.client_id = 1});
  try {
    (void)f2.get();
    FAIL() << "second 4-row submission should have been throttled";
  } catch (const serve::ThrottledError& e) {
    // ~4 rows short at 1 row/s: the estimate is close to 4 seconds.
    EXPECT_GT(e.retry_after_s(), 3.0);
    EXPECT_LT(e.retry_after_s(), 5.0);
  }
  q.close();
  serve::Request r;
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f1), 0);
}

TEST(Quota, BucketRefillsAtTheConfiguredRate) {
  serve::AdmissionConfig cfg;
  cfg.client_quota[1] = {.rate = 50.0, .burst = 1.0};  // 20ms per row
  serve::RequestQueue q(cfg);
  auto f1 = q.submit(tiny_input(), {.client_id = 1});
  auto f2 = q.submit(tiny_input(), {.client_id = 1});  // back to back
  EXPECT_EQ(settle_kind(f2), 3);
  std::this_thread::sleep_for(50ms);  // > 20ms: one row of credit back
  auto f3 = q.submit(tiny_input(), {.client_id = 1});
  EXPECT_EQ(q.throttled(), 1u);
  q.close();
  serve::Request r;
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f1), 0);
  EXPECT_EQ(settle_kind(f3), 0);
}

TEST(Quota, OversizedRequestIsPermanentlyThrottledNotRetryBaited) {
  serve::AdmissionConfig cfg;
  cfg.client_quota[1] = {.rate = 1.0, .burst = 2.0};
  serve::RequestQueue q(cfg);
  auto f = q.submit(tiny_input(4), {.client_id = 1});  // can never fit
  try {
    (void)f.get();
    FAIL() << "a request larger than burst must be refused";
  } catch (const serve::ThrottledError& e) {
    EXPECT_TRUE(std::isinf(e.retry_after_s()))
        << "finite retry-after would send the client into an endless loop";
  }
  // The refusal cost nothing: a burst-sized request still goes through.
  auto f2 = q.submit(tiny_input(2), {.client_id = 1});
  q.close();
  serve::Request r;
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f2), 0);
}

TEST(Quota, CapacityRejectionRefundsTheTenantsTokens) {
  serve::AdmissionConfig cfg;
  cfg.policy = serve::AdmissionPolicy::kReject;
  cfg.capacity = 1;
  cfg.client_quota[1] = {.rate = 0.001, .burst = 2.0};  // ~never refills
  serve::RequestQueue q(cfg);
  auto f1 = q.submit(tiny_input(), {.client_id = 1});  // admitted
  auto f2 = q.submit(tiny_input(), {.client_id = 1});  // capacity-rejected
  EXPECT_EQ(settle_kind(f2), 1);
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  serve::settle_value(r, dummy_result());
  // Without the refund the bucket would be empty now (two tokens charged
  // for one admitted request); the tenant must still hold one.
  auto f3 = q.submit(tiny_input(), {.client_id = 1});
  q.close();
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f1), 0);
  EXPECT_EQ(settle_kind(f3), 0);
  EXPECT_EQ(q.throttled(), 0u);
}

TEST(Quota, ThrottledFlooderNeverStarvesCompliantTenants) {
  // Randomized sweep: a flooder with a tight bucket hammers the queue
  // while compliant tenants trickle. Every compliant submission must be
  // served; the flooder's refusals are all typed ThrottledError; every
  // future settles exactly once.
  for (uint64_t seed : {21u, 22u, 23u}) {
    serve::AdmissionConfig cfg;
    cfg.client_quota[1] = {.rate = 200.0, .burst = 4.0};
    serve::RequestQueue q(cfg);
    std::thread consumer([&q] {
      serve::Request r;
      while (q.pop(r)) serve::settle_value(r, dummy_result());
    });

    constexpr size_t kFlood = 100, kCompliantEach = 25;
    std::vector<std::future<sc::InferenceResult>> flood, compliant;
    std::thread flooder([&] {
      for (size_t k = 0; k < kFlood; ++k)
        flood.push_back(q.submit(tiny_input(), {.client_id = 1}));
    });
    std::vector<std::thread> tenants;
    std::vector<std::vector<std::future<sc::InferenceResult>>> per(2);
    for (size_t t = 0; t < 2; ++t)
      tenants.emplace_back([&, t] {
        std::mt19937_64 gen(seed + t);
        std::uniform_int_distribution<int> jitter(0, 120);
        for (size_t k = 0; k < kCompliantEach; ++k) {
          per[t].push_back(q.submit(tiny_input(), {.client_id = 2 + t}));
          std::this_thread::sleep_for(std::chrono::microseconds(jitter(gen)));
        }
      });
    flooder.join();
    for (auto& t : tenants) t.join();
    q.close();
    consumer.join();

    int64_t flood_values = 0, flood_throttled = 0;
    for (auto& f : flood) switch (settle_kind(f)) {
        case 0: ++flood_values; break;
        case 3: ++flood_throttled; break;
        default: ADD_FAILURE() << "flooder saw an unexpected settlement";
      }
    EXPECT_EQ(flood_values + flood_throttled,
              static_cast<int64_t>(kFlood));
    EXPECT_GT(flood_throttled, 0);
    for (auto& futs : per)
      for (auto& f : futs)
        EXPECT_EQ(settle_kind(f), 0)
            << "a compliant tenant was not served (seed " << seed << ")";
    EXPECT_EQ(q.throttled(), static_cast<uint64_t>(flood_throttled));
  }
}

// ------------------------------------------------------ server-level SLO

struct SloRig {
  std::vector<std::unique_ptr<core::MtlSplitModel>> models;

  explicit SloRig(size_t replicas = 1, uint64_t seed = 1) {
    for (size_t r = 0; r < replicas; ++r) {
      Rng rng(seed + 100 * r);
      models.push_back(core::make_mtl_model(factory_cfg(),
                                            {{"a", 4}, {"b", 3}}, rng));
      models.back()->set_training(false);
      if (r > 0) core::copy_model_state(*models.back(), *models[0]);
    }
  }

  static core::ModelFactoryConfig factory_cfg() {
    core::ModelFactoryConfig cfg;
    cfg.backbone = models::BackboneKind::kMobileNetV3;
    cfg.image_shape = {3, 16, 16};
    return cfg;
  }

  /// Factory for autoscaler minting: structurally identical, distinct
  /// init (the server overwrites the weights via copy_model_state).
  static std::unique_ptr<core::MtlSplitModel> mint() {
    Rng rng(999);
    return core::make_mtl_model(factory_cfg(), {{"a", 4}, {"b", 3}}, rng);
  }

  Tensor input(uint64_t seed) const {
    Rng rng(seed);
    Tensor t({1, 3, 16, 16});
    rng.fill_uniform(t, 0.0f, 1.0f);
    return t;
  }
};

TEST(ServerDeadline, ExpiredRequestsNeverReachTheModel) {
  SloRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server(),
                         {.batching = {.max_batch_size = 4,
                                       .max_wait_us = 2000}});
  // Pre-expired: each settles with a typed error from some phase and is
  // never dispatched.
  std::vector<std::future<sc::InferenceResult>> dead;
  for (uint64_t i = 0; i < 8; ++i)
    dead.push_back(
        server.submit(rig.input(100 + i),
                      {.deadline = std::chrono::steady_clock::now() - 1ms}));
  for (auto& f : dead) {
    const int kind = settle_kind(f);
    EXPECT_TRUE(kind >= 4 && kind <= 6) << "settlement kind " << kind;
  }
  // The server stays healthy: live requests complete bitwise-correct.
  SloRig ref_rig;
  core::copy_model_state(*ref_rig.models[0], *rig.models[0]);
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*ref_rig.models[0], ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  for (uint64_t i = 0; i < 4; ++i) {
    const Tensor x = rig.input(200 + i);
    const sc::InferenceResult got = server.submit(x.clone()).get();
    const sc::InferenceResult want = ref.infer(x);
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]));
  }
  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.expired, 8);
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.failed, 0);
}

TEST(Autoscale, GrowsUnderBurstNeverPastMaxAndShrinksWhenIdle) {
  SloRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ServeConfig cfg;
  cfg.batching = {.max_batch_size = 4, .max_wait_us = 200};
  cfg.autoscale = {.enabled = true,
                   .min_replicas = 1,
                   .max_replicas = 3,
                   .scale_up_backlog = 2.0,
                   .scale_down_backlog = 0.5,
                   .interval_us = 5000,
                   .hysteresis_ticks = 2,
                   .make_replica = &SloRig::mint};
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server(), cfg);
  EXPECT_EQ(server.num_workers(), 1u);

  // Burst: open-loop work that holds the backlog over the scale-up
  // threshold for several controller ticks. Each sample tops it back up
  // to kBurst outstanding requests: a one-shot burst of 64 drains in
  // about two 5 ms ticks on a 4-core host, so whether the two-tick
  // hysteresis window sees it would race the replica's compute speed.
  constexpr int64_t kBurst = 64;
  constexpr size_t kMaxRequests = 4096;
  std::vector<std::future<sc::InferenceResult>> futs;
  std::vector<Tensor> inputs;
  size_t max_seen = 1;
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  for (int t = 0; std::chrono::steady_clock::now() < give_up; ++t) {
    const serve::ServeStats seen = server.stats();
    const int64_t outstanding =
        static_cast<int64_t>(futs.size()) - seen.completed - seen.failed;
    for (int64_t k = outstanding; k < kBurst && futs.size() < kMaxRequests;
         ++k) {
      const uint64_t i = inputs.size();
      inputs.push_back(rig.input(500 + i));
      futs.push_back(
          server.submit(inputs.back().clone(), {.client_id = i % kBurst}));
    }
    max_seen = std::max(max_seen, server.num_workers());
    ASSERT_LE(server.num_workers(), 3u) << "autoscaler exceeded max_replicas";
    std::this_thread::sleep_for(1ms);
    if (t > 20 && max_seen > 1) break;
  }
  // Every burst request completes, bitwise identical to sequential infer
  // — whichever (possibly minted) replica served it.
  SloRig ref_rig;
  core::copy_model_state(*ref_rig.models[0], *rig.models[0]);
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*ref_rig.models[0], ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  for (size_t i = 0; i < futs.size(); ++i) {
    const sc::InferenceResult got = futs[i].get();
    const sc::InferenceResult want = ref.infer(inputs[i]);
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "autoscaled request " << i << " diverged";
  }
  EXPECT_GT(max_seen, 1u) << "burst never triggered a scale-up";

  // Idle: the controller retires extras back toward min_replicas.
  bool shrank = false;
  for (int t = 0; t < 2000 && !shrank; ++t) {
    shrank = server.num_workers() == 1;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(shrank) << "autoscaler never scaled back down to min";

  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_GE(s.scale_ups, 1);
  EXPECT_GE(s.scale_downs, 1);
  EXPECT_EQ(s.completed, static_cast<int64_t>(futs.size()));
  EXPECT_EQ(s.failed, 0);
}

TEST(ServerQuota, ThrottledTenantGetsTypedErrorOthersUnaffected) {
  SloRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ServeConfig cfg;
  cfg.batching = {.max_batch_size = 4, .max_wait_us = 500};
  cfg.admission.client_quota[9] = {.rate = 0.001, .burst = 3.0};
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server(), cfg);
  int64_t values = 0, throttled = 0;
  std::vector<std::future<sc::InferenceResult>> futs;
  for (uint64_t i = 0; i < 10; ++i)
    futs.push_back(server.submit(rig.input(900 + i), {.client_id = 9}));
  for (uint64_t i = 0; i < 6; ++i)
    futs.push_back(server.submit(rig.input(950 + i), {.client_id = 10}));
  for (auto& f : futs) switch (settle_kind(f)) {
      case 0: ++values; break;
      case 3: ++throttled; break;
      default: ADD_FAILURE() << "unexpected settlement"; break;
    }
  server.shutdown();
  EXPECT_EQ(values, 3 + 6);      // burst-of-3 for tenant 9, all of tenant 10
  EXPECT_EQ(throttled, 7);
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(s.throttled, 7);
  EXPECT_EQ(s.completed, 9);
}

// ------------------------------------------------- SLO feedback control

/// A drained latency window of @p n samples all at @p value seconds.
telemetry::HistSnapshot slo_window(int n, double value) {
  telemetry::Histogram h;
  for (int i = 0; i < n; ++i) h.observe(value);
  return h.drain();
}

TEST(SloControl, AimdShrinksUnderViolationAndRecoversUnderComfort) {
  telemetry::Registry reg;
  serve::SloConfig cfg;
  cfg.enabled = true;
  cfg.target_p99_s = 0.1;
  cfg.min_window_samples = 4;
  cfg.min_depth = 2;
  cfg.shrink = 0.5;
  cfg.grow_margin = 0.7;
  cfg.min_scale_up_backlog = 1.0;
  serve::SloController c(cfg, /*initial_depth=*/64,
                         /*base_scale_up_backlog=*/8.0, reg);
  EXPECT_EQ(c.depth_cap(), 64u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve/slo/depth_cap"), 64.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve/slo/target_p99_s"), 0.1);

  // A thin window (fewer completions than min_window_samples) carries no
  // signal: the tick counts but the actuators stay put.
  const auto idle = c.tick(slo_window(2, 10.0));
  EXPECT_FALSE(idle.acted);
  EXPECT_EQ(c.depth_cap(), 64u);
  EXPECT_EQ(reg.counter_value("serve/slo/ticks"), 1);
  EXPECT_EQ(reg.counter_value("serve/slo/violations"), 0);

  // Sustained violation: multiplicative decrease 64 -> 32 -> ... -> 2,
  // floored at min_depth; the autoscale threshold halves alongside and
  // floors at min_scale_up_backlog.
  const size_t caps[] = {32, 16, 8, 4, 2, 2};
  const double backlogs[] = {4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  for (size_t i = 0; i < 6; ++i) {
    const auto d = c.tick(slo_window(8, 0.5));
    EXPECT_TRUE(d.acted);
    EXPECT_EQ(d.depth_cap, caps[i]) << "violation tick " << i;
    EXPECT_DOUBLE_EQ(d.scale_up_backlog, backlogs[i]);
  }
  EXPECT_EQ(reg.counter_value("serve/slo/violations"), 6);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve/slo/depth_cap"), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve/slo/p99_window_s"), 0.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve/slo/slack_s"), 0.1 - 0.5);

  // The dead zone (inside the SLO but above the comfort margin) holds the
  // actuators still — no oscillation against the boundary.
  const auto hold = c.tick(slo_window(8, 0.08));
  EXPECT_TRUE(hold.acted);
  EXPECT_EQ(hold.depth_cap, 2u);

  // Comfort: additive growth all the way back to the initial depth and
  // the configured backlog threshold, never past either.
  for (int i = 0; i < 100; ++i) (void)c.tick(slo_window(8, 0.01));
  EXPECT_EQ(c.depth_cap(), 64u);
  EXPECT_DOUBLE_EQ(c.scale_up_backlog(), 8.0);
  EXPECT_EQ(reg.counter_value("serve/slo/violations"), 6);
}

TEST(SloControl, BacklogRecoveryIsAdditiveMonotoneAndBounded) {
  // Regression: the recovery path used to restore scale_up_backlog_ by
  // dividing with cfg.shrink — a multiplicative increase that jumped
  // 4.0 -> 8.0 in one tick and re-oscillated right at the SLO boundary.
  // The AIMD contract (DESIGN.md §11) wants additive recovery, stepping
  // by max(min_scale_up_backlog, x/8) like the depth path.
  telemetry::Registry reg;
  serve::SloConfig cfg;
  cfg.enabled = true;
  cfg.target_p99_s = 0.1;
  cfg.min_window_samples = 4;
  cfg.min_depth = 2;
  cfg.shrink = 0.5;
  cfg.grow_margin = 0.7;
  cfg.min_scale_up_backlog = 1.0;
  serve::SloController c(cfg, /*initial_depth=*/64,
                         /*base_scale_up_backlog=*/8.0, reg);

  // One violation: 8.0 -> 4.0 (multiplicative decrease).
  const auto shrunk = c.tick(slo_window(8, 0.5));
  ASSERT_DOUBLE_EQ(shrunk.scale_up_backlog, 4.0);

  // Recovery must climb back in additive steps — with the bug the very
  // first comfort tick restored 8.0.
  double prev = 4.0;
  std::vector<double> seen;
  for (int i = 0; i < 8; ++i) {
    const auto d = c.tick(slo_window(8, 0.01));
    ASSERT_TRUE(d.acted);
    EXPECT_GE(d.scale_up_backlog, prev) << "recovery tick " << i
                                        << " was not monotone";
    EXPECT_LE(d.scale_up_backlog,
              prev + std::max(cfg.min_scale_up_backlog, prev / 8.0) + 1e-12)
        << "recovery tick " << i << " stepped more than additively";
    EXPECT_LE(d.scale_up_backlog, 8.0) << "recovery overshot the base";
    prev = d.scale_up_backlog;
    seen.push_back(d.scale_up_backlog);
  }
  // Exact trajectory with these constants: +1 per tick, clamped at base.
  const std::vector<double> want = {5.0, 6.0, 7.0, 8.0, 8.0, 8.0, 8.0, 8.0};
  ASSERT_EQ(seen.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_DOUBLE_EQ(seen[i], want[i]) << "recovery tick " << i;
  EXPECT_NE(seen[0], 8.0) << "first recovery tick restored the base in one "
                             "jump (multiplicative bug)";
}

TEST(SloControl, SetCapacityShrinkRacingBlockedSubmittersStaysLive) {
  // The SLO controller shrinks queue capacity below the current depth
  // while Block-policy submitters are parked in the admission wait.
  // Contract: no blocked producer may deadlock or be stranded past its
  // own deadline — it either gets admitted (capacity re-grows / a slot
  // frees) or settles kAdmission at the deadline. TSan-clean by
  // construction: every cross-thread touch goes through the queue's own
  // mutex or an atomic.
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kBlock, .capacity = 8});
  constexpr int kProducers = 4, kPerProducer = 40;
  constexpr auto kTtl = 300ms;

  std::atomic<bool> stop_thrash{false};
  std::thread thrasher([&] {
    size_t i = 0;
    while (!stop_thrash.load(std::memory_order_acquire)) {
      q.set_capacity(1 + (i++ % 8));  // repeatedly dips below the depth
      std::this_thread::sleep_for(100us);
    }
  });
  std::thread consumer([&] {  // slow: keeps the queue saturated
    serve::Request r;
    while (q.pop(r)) {
      std::this_thread::sleep_for(300us);
      serve::settle_value(r, dummy_result());
    }
  });

  std::vector<std::vector<std::future<sc::InferenceResult>>> futs(kProducers);
  std::vector<std::thread> producers;
  std::atomic<int64_t> worst_block_us{0};
  for (int t = 0; t < kProducers; ++t)
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto before = std::chrono::steady_clock::now();
        futs[t].push_back(
            q.submit(tiny_input(), {.client_id = static_cast<uint64_t>(t),
                                    .ttl = kTtl}));
        const auto blocked =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - before)
                .count();
        int64_t cur = worst_block_us.load(std::memory_order_relaxed);
        while (blocked > cur &&
               !worst_block_us.compare_exchange_weak(
                   cur, blocked, std::memory_order_relaxed)) {
        }
      }
    });
  for (auto& t : producers) t.join();
  stop_thrash.store(true, std::memory_order_release);
  thrasher.join();
  q.close();
  consumer.join();

  // Liveness: the longest a submitter ever blocked is bounded by its own
  // deadline (plus generous scheduling slack), not by the thrash pattern.
  EXPECT_LT(worst_block_us.load(),
            std::chrono::duration_cast<std::chrono::microseconds>(kTtl).count()
                + 2000000)
      << "a Block submitter was stranded past its deadline";
  // Exactly-once settlement, only the two legal outcomes.
  int64_t values = 0, admission_expired = 0;
  for (auto& per : futs)
    for (auto& f : per) switch (settle_kind(f)) {
        case 0: ++values; break;
        case 4: ++admission_expired; break;
        default:
          ADD_FAILURE() << "unexpected settlement under capacity thrash";
      }
  EXPECT_EQ(values + admission_expired,
            static_cast<int64_t>(kProducers * kPerProducer));
  EXPECT_GT(values, 0);
}

TEST(SloControl, CtorValidatesConfig) {
  telemetry::Registry reg;
  serve::SloConfig ok;
  ok.target_p99_s = 0.1;
  auto with = [&](auto mutate) {
    serve::SloConfig c = ok;
    mutate(c);
    return c;
  };
  EXPECT_NO_THROW(serve::SloController(ok, 8, 4.0, reg));
  EXPECT_THROW(
      serve::SloController(with([](auto& c) { c.target_p99_s = 0.0; }), 8,
                           4.0, reg),
      std::invalid_argument);
  EXPECT_THROW(serve::SloController(with([](auto& c) { c.shrink = 1.0; }), 8,
                                    4.0, reg),
               std::invalid_argument);
  EXPECT_THROW(serve::SloController(with([](auto& c) { c.min_depth = 0; }), 8,
                                    4.0, reg),
               std::invalid_argument);
  EXPECT_THROW(
      serve::SloController(
          with([](auto& c) { c.min_depth = 9, c.max_depth = 4; }), 8, 4.0,
          reg),
      std::invalid_argument);
  EXPECT_THROW(serve::SloController(ok, 0, 4.0, reg), std::invalid_argument);
}

TEST(SloControl, SetCapacityIsALiveActuator) {
  // The controller's queue-side actuator: capacity drops take effect on
  // the very next admission decision.
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kReject, .capacity = 4});
  auto f1 = q.submit(tiny_input());
  auto f2 = q.submit(tiny_input());
  q.set_capacity(1);
  auto f3 = q.submit(tiny_input());  // over the new cap
  EXPECT_EQ(settle_kind(f3), 1);
  EXPECT_EQ(q.rejected(), 1u);
  q.set_capacity(4);
  auto f4 = q.submit(tiny_input());
  q.close();
  serve::Request r;
  while (q.pop(r)) serve::settle_value(r, dummy_result());
  EXPECT_EQ(settle_kind(f1), 0);
  EXPECT_EQ(settle_kind(f2), 0);
  EXPECT_EQ(settle_kind(f4), 0);
}

TEST(ServerSlo, ControllerReactsToViolationsEndToEnd) {
  // An impossible SLO (1µs p99) makes every completion a violation: the
  // controller must shrink the depth cap off its configured value and
  // publish its state into the server's telemetry tree.
  SloRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ServeConfig cfg;
  cfg.batching = {.max_batch_size = 4, .max_wait_us = 200};
  cfg.admission.policy = serve::AdmissionPolicy::kReject;
  cfg.admission.capacity = 32;
  cfg.slo.enabled = true;
  cfg.slo.target_p99_s = 1e-6;
  cfg.slo.interval_us = 2000;
  cfg.slo.min_window_samples = 4;
  cfg.slo.min_depth = 2;
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server(), cfg);
  std::vector<std::future<sc::InferenceResult>> futs;
  for (int round = 0; round < 30; ++round) {
    for (uint64_t i = 0; i < 8; ++i)
      futs.push_back(server.submit(rig.input(round * 8 + i), {.client_id = i}));
    std::this_thread::sleep_for(5ms);
  }
  for (auto& f : futs) (void)settle_kind(f);  // settle everything; kinds vary
  server.shutdown();

  const telemetry::Registry& tree = server.telemetry_tree();
  EXPECT_GT(tree.counter_value("serve/slo/ticks"), 0);
  EXPECT_GT(tree.counter_value("serve/slo/violations"), 0);
  const double cap = tree.gauge_value("serve/slo/depth_cap");
  EXPECT_LT(cap, 32.0) << "controller never shrank the depth cap";
  EXPECT_GE(cap, 2.0);
  // The feedback loop is observable through the JSON exporter too.
  EXPECT_NE(server.telemetry_json().find("\"slo\":{"), std::string::npos);
  const serve::ServeStats s = server.stats();
  EXPECT_GT(s.completed, 0);
}

TEST(ServerSlo, EnabledRequiresBoundedQueue) {
  SloRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ServeConfig cfg;
  cfg.slo.enabled = true;
  cfg.slo.target_p99_s = 0.5;
  // admission.capacity defaults to unbounded: the depth-cap actuator has
  // nothing to actuate, which must be a loud config error.
  EXPECT_THROW(serve::ScServer({rig.models[0].get()}, link, sc::jetson_nano(),
                               sc::rtx3090_server(), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
