// Graph IR, pass pipeline, compiled executor, workspace planning and the
// automatic split-point search (DESIGN.md §10).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "graph/split_search.hpp"
#include "models/backbone.hpp"
#include "mtl/model_factory.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/misc_layers.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit {
namespace {

std::unique_ptr<nn::Sequential> edge_backbone(models::BackboneKind kind,
                                              Rng& rng) {
  return models::build_backbone({kind, models::BackboneScale::kEdge, 3}, rng);
}

Tensor random_image(uint64_t seed, int64_t n = 1) {
  Rng rng(seed);
  Tensor x({n, 3, 16, 16});
  rng.fill_uniform(x, 0.0f, 1.0f);
  return x;
}

/// Eager reference forward with caches cleared of batch effects: the
/// Sequential itself, layer by layer (what ScDeployment ran pre-compiler).
Tensor eager_forward(nn::Sequential& seq, const Tensor& x) {
  return seq.forward(x);
}

// -------------------------------------------------------------- lowering

TEST(GraphIR, LowersEveryEdgeBackbone) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(11);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    graph::Graph g = graph::lower(*bb, {1, 3, 16, 16});
    EXPECT_GE(g.nodes.size(), bb->size()) << models::backbone_name(kind);
    EXPECT_EQ(g.output_shape, bb->output_shape({1, 3, 16, 16}));
    // Every node's inputs/outputs are valid value ids.
    for (const graph::Node& n : g.nodes) {
      ASSERT_GE(n.output, 0);
      ASSERT_LT(static_cast<size_t>(n.output), g.values.size());
      for (int v : n.inputs) {
        ASSERT_GE(v, 0);
        ASSERT_LT(static_cast<size_t>(v), g.values.size());
      }
    }
  }
}

TEST(GraphIR, RefusesTrainingModeModels) {
  Rng rng(12);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  bb->set_training(true);
  EXPECT_THROW(graph::lower(*bb, {1, 3, 16, 16}), std::invalid_argument);
}

// ------------------------------------------------- compiled vs eager round trip

TEST(GraphExecutor, ExactModeIsBitwiseOnAllBackbones) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(21);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    auto plan = graph::compile(*bb, {1, 3, 16, 16});
    graph::GraphExecutor exec(plan);
    for (int64_t n : {int64_t{1}, int64_t{3}}) {
      const Tensor x = random_image(100 + n, n);
      const Tensor eager = eager_forward(*bb, x);
      const Tensor compiled = exec.run(x);
      ASSERT_EQ(compiled.shape(), eager.shape());
      EXPECT_TRUE(compiled.equals(eager))
          << models::backbone_name(kind) << " batch " << n
          << ": compiled output diverged from eager";
    }
  }
}

TEST(GraphExecutor, FusedModeMatchesEagerToTolerance) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(31);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    auto plan = graph::compile(*bb, {1, 3, 16, 16}, {.exact = false});
    graph::GraphExecutor exec(plan);
    const Tensor x = random_image(131, 2);
    const Tensor eager = eager_forward(*bb, x);
    const Tensor fused = exec.run(x);
    ASSERT_EQ(fused.shape(), eager.shape());
    EXPECT_TRUE(fused.allclose(eager, 1e-4f))
        << models::backbone_name(kind) << ": BN folding drifted too far";
  }
}

// ------------------------------------------------------------------ passes

TEST(GraphPasses, PipelineIsIdempotent) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(41);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    graph::Graph g = graph::lower(*bb, {1, 3, 16, 16});
    const auto build = [] {
      graph::PassManager pm;
      pm.add(std::make_unique<graph::EliminateDeadLayers>());
      pm.add(std::make_unique<graph::FoldBatchNorm>());
      pm.add(std::make_unique<graph::FuseActivation>());
      pm.add(std::make_unique<graph::PlanWorkspace>());
      return pm;
    };
    auto first = build().run(g);
    int first_rewrites = 0;
    for (const auto& r : first) first_rewrites += r.rewrites;
    EXPECT_GT(first_rewrites, 0) << models::backbone_name(kind);
    // Second run over the already-optimised graph: fixed point everywhere.
    for (const auto& r : build().run(g))
      EXPECT_EQ(r.rewrites, 0)
          << models::backbone_name(kind) << " pass " << r.name
          << " is not idempotent";
  }
}

TEST(GraphPasses, FoldBatchNormMatchesHandComputedWeights) {
  Rng rng(51);
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2d>(2, 3, 3, 1, 1, rng, /*with_bias=*/true);
  seq->emplace<nn::BatchNorm2d>(3);
  // Give the BN non-trivial statistics (fresh ones are mean 0 / var 1).
  seq->set_training(true);
  Tensor warm({4, 2, 5, 5});
  rng.fill_uniform(warm, -2.0f, 2.0f);
  (void)seq->forward(warm);
  seq->set_training(false);

  // Hand-fold from the eager layer's own parameters.
  auto& conv = dynamic_cast<nn::Conv2d&>(seq->layer(0));
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(seq->layer(1));
  const int64_t row = 2 * 3 * 3;
  std::vector<float> want_w(static_cast<size_t>(3 * row));
  std::vector<float> want_b(3);
  for (int64_t c = 0; c < 3; ++c) {
    const float inv_std =
        1.0f / std::sqrt(bn.running_var()[c] + bn.eps());
    const float s = bn.gamma().value[c] * inv_std;
    for (int64_t j = 0; j < row; ++j)
      want_w[static_cast<size_t>(c * row + j)] =
          conv.weight().value[c * row + j] * s;
    want_b[static_cast<size_t>(c)] =
        (conv.bias().value[c] - bn.running_mean()[c]) * s +
        bn.beta().value[c];
  }

  auto plan = graph::compile(*seq, {1, 2, 5, 5}, {.exact = false});
  const graph::Graph& g = plan->graph();
  ASSERT_EQ(g.nodes.size(), 1u) << "BN should be folded away";
  const graph::Node& n = g.nodes[0];
  EXPECT_EQ(n.kind, graph::OpKind::kConv2d);
  const Tensor& w = g.consts[static_cast<size_t>(n.weight)];
  const Tensor& b = g.consts[static_cast<size_t>(n.bias)];
  for (int64_t i = 0; i < w.numel(); ++i)
    EXPECT_FLOAT_EQ(w[i], want_w[static_cast<size_t>(i)]) << "weight " << i;
  for (int64_t c = 0; c < 3; ++c)
    EXPECT_FLOAT_EQ(b[c], want_b[static_cast<size_t>(c)]) << "bias " << c;
}

TEST(GraphPasses, DeadLayerEliminationDropsIdentities) {
  Rng rng(61);
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2d>(3, 4, 3, 1, 1, rng);
  seq->emplace<nn::Identity>();
  seq->emplace<nn::Dropout>(0.5f, rng);
  seq->emplace<nn::Flatten>();
  seq->set_training(false);
  auto plan = graph::compile(*seq, {1, 3, 8, 8});
  ASSERT_EQ(plan->graph().nodes.size(), 1u);
  EXPECT_EQ(plan->graph().nodes[0].kind, graph::OpKind::kConv2d);
  // The output shape still reflects the Flatten.
  EXPECT_EQ(plan->graph().output_shape, (Shape{1, 4 * 8 * 8}));
}

// -------------------------------------------------------- workspace planning

TEST(GraphWorkspace, LiveIntervalsNeverShareBytes) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(71);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    auto plan = graph::compile(*bb, {1, 3, 16, 16});
    const graph::Graph& g = plan->graph();
    EXPECT_GT(g.arena_per_sample, 0);
    std::vector<const graph::Value*> live;
    for (size_t v = 0; v < g.values.size(); ++v)
      if (g.values[v].offset >= 0) live.push_back(&g.values[v]);
    for (size_t a = 0; a < live.size(); ++a) {
      EXPECT_LE(live[a]->offset + live[a]->elems, g.arena_per_sample);
      for (size_t b = a + 1; b < live.size(); ++b) {
        const graph::Value* va = live[a];
        const graph::Value* vb = live[b];
        // Boundary-exclusive interval overlap: sharing is legal only when
        // one value's last read happens strictly before the other's def.
        const bool disjoint_time =
            va->last_use < vb->def || vb->last_use < va->def;
        const bool disjoint_bytes = va->offset + va->elems <= vb->offset ||
                                    vb->offset + vb->elems <= va->offset;
        EXPECT_TRUE(disjoint_time || disjoint_bytes)
            << models::backbone_name(kind) << ": values " << va->name
            << " and " << vb->name << " overlap in both time and space";
      }
    }
  }
}

TEST(GraphWorkspace, PoisonedDeadSlotsDoNotChangeOutputs) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(81);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    auto plan = graph::compile(*bb, {1, 3, 16, 16});
    graph::GraphExecutor clean(plan), poisoned(plan);
    poisoned.set_poison_dead(true);
    const Tensor x = random_image(181, 2);
    EXPECT_TRUE(poisoned.run(x).equals(clean.run(x)))
        << models::backbone_name(kind)
        << ": a kernel read bytes after their value died";
  }
}

TEST(GraphExecutor, SampleRangesAreBitwiseAtEveryLaneCount) {
  // run() gives each pool lane one contiguous sample range, so the range
  // boundaries follow the lane count: batch 5 on 4 lanes runs ranges of 2,
  // 2 and 1. No kernel reduces across samples, so every output row must
  // equal a batch-1 run of its sample bit for bit whatever the split.
  struct RestoreLanes {
    ~RestoreLanes() {
      runtime::set_num_threads(runtime::default_num_threads());
    }
  } restore;
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(85);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    auto plan = graph::compile(*bb, {1, 3, 16, 16});
    const Tensor x = random_image(185, 8);
    std::vector<Tensor> want;
    graph::GraphExecutor single(plan);
    for (int64_t i = 0; i < 8; ++i)
      want.push_back(single.run(ops::slice_batch(x, i, i + 1)));
    const size_t row_bytes =
        static_cast<size_t>(want[0].numel()) * sizeof(float);
    for (int lanes : {1, 2, 4}) {
      runtime::set_num_threads(lanes);
      graph::GraphExecutor exec(plan);
      exec.set_poison_dead(true);
      for (int64_t nb : {1, 2, 3, 5, 8}) {
        const Tensor y = exec.run(ops::slice_batch(x, 0, nb));
        ASSERT_EQ(y.shape(), plan->output_shape(nb));
        for (int64_t i = 0; i < nb; ++i)
          EXPECT_EQ(std::memcmp(y.data() + i * want[0].numel(),
                                want[static_cast<size_t>(i)].data(),
                                row_bytes),
                    0)
              << models::backbone_name(kind) << " on " << lanes
              << " lanes, batch " << nb << ": row " << i
              << " differs from its batch-1 run";
      }
    }
  }
}

// ------------------------------------------------------------ plan sharing

TEST(GraphPlanCache, CompilesOncePerKey) {
  Rng rng(91);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  bb->set_training(false);
  graph::PlanCache cache;
  auto p1 = cache.get_or_compile("bb/16", *bb, {1, 3, 16, 16});
  auto p2 = cache.get_or_compile("bb/16", *bb, {1, 3, 16, 16});
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GraphExecutor, SharedPlanRunsRaceFreeAcrossThreads) {
  Rng rng(95);
  auto bb = edge_backbone(models::BackboneKind::kMobileNetV3, rng);
  bb->set_training(false);
  auto plan = graph::compile(*bb, {1, 3, 16, 16});
  const Tensor x = random_image(195, 3);
  const Tensor want = eager_forward(*bb, x);
  // One executor per thread over ONE immutable plan — the sharing model
  // every ScServer worker relies on (this test runs under TSan in CI). At
  // batch 3 each run also splits into sample ranges on the shared pool.
  std::vector<std::thread> threads;
  // Not vector<bool>: bit-packing would make the per-thread writes race.
  std::array<std::atomic<bool>, 4> ok{};
  for (size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      graph::GraphExecutor exec(plan);
      bool all = true;
      for (int i = 0; i < 3; ++i) all = all && exec.run(x).equals(want);
      ok[t] = all;
    });
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < 4; ++t) EXPECT_TRUE(ok[t]) << "thread " << t;
}

// -------------------------------------------------- deployment integration

TEST(GraphDeployment, BatchedServingStaysBitwiseWithCompiledExecutor) {
  Rng rng(101);
  core::ModelFactoryConfig cfg;
  cfg.backbone = models::BackboneKind::kMobileNetV3;
  cfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng);
  model->set_training(false);

  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment dep(*model, ch, sc::jetson_nano(), sc::rtx3090_server());
  const Tensor batch = random_image(201, 4);
  const auto br = dep.infer_batch(batch);
  ASSERT_EQ(br.items.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    const auto single = dep.infer(ops::slice_batch(batch, i, i + 1));
    const auto& item = br.items[static_cast<size_t>(i)];
    ASSERT_TRUE(item.ok());
    ASSERT_EQ(item.result.logits.size(), single.logits.size());
    for (size_t j = 0; j < single.logits.size(); ++j)
      EXPECT_TRUE(item.result.logits[j].equals(single.logits[j]))
          << "sample " << i << " task " << j;
  }
}

TEST(GraphDeployment, CompiledLogitsMatchEagerForwardBitwise) {
  Rng rng(111);
  core::ModelFactoryConfig cfg;
  cfg.backbone = models::BackboneKind::kEfficientNet;
  cfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(cfg, {{"a", 4}}, rng);
  model->set_training(false);
  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment compiled(*model, ch, sc::jetson_nano(),
                            sc::rtx3090_server());
  const Tensor x = random_image(211);
  const auto got = compiled.infer(x);
  const std::vector<Tensor> want = model->forward(x);
  ASSERT_EQ(got.logits.size(), want.size());
  for (size_t j = 0; j < want.size(); ++j)
    EXPECT_TRUE(got.logits[j].equals(want[j])) << "task " << j;
}

TEST(GraphDeployment, ServerWorkersShareOnePlanCache) {
  // >= 2 workers over one shared PlanCache — the TSan matrix runs this to
  // prove plan sharing is race-free end to end.
  core::ModelFactoryConfig cfg;
  cfg.backbone = models::BackboneKind::kMobileNetV3;
  cfg.image_shape = {3, 16, 16};
  std::vector<std::unique_ptr<core::MtlSplitModel>> replicas;
  for (size_t r = 0; r < 2; ++r) {
    Rng rng(300 + r);
    replicas.push_back(core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng));
    replicas.back()->set_training(false);
    if (r > 0) core::copy_model_state(*replicas.back(), *replicas[0]);
  }

  // Sequential reference on a weight-identical copy.
  Rng ref_rng(310);
  auto ref_model = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, ref_rng);
  ref_model->set_training(false);
  core::copy_model_state(*ref_model, *replicas[0]);
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*ref_model, ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());

  auto shared_cache = std::make_shared<graph::PlanCache>();
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ServeConfig scfg;
  scfg.deployment.plan_cache = shared_cache;
  serve::ScServer server({replicas[0].get(), replicas[1].get()}, link,
                         sc::jetson_nano(), sc::rtx3090_server(), scfg);
  ASSERT_EQ(server.num_workers(), 2u);

  std::vector<Tensor> inputs;
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < 8; ++i) {
    inputs.push_back(random_image(400 + i));
    futures.push_back(server.submit(inputs.back()));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto got = futures[i].get();
    const auto want = ref.infer(inputs[i]);
    ASSERT_EQ(got.logits.size(), want.logits.size());
    for (size_t j = 0; j < got.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "request " << i << " task " << j;
  }
  server.shutdown();
  // Both workers compiled through the one cache: backbone + two heads.
  EXPECT_EQ(shared_cache->size(), 3u);
}

// ----------------------------------------------------------------- dump_dot

TEST(GraphDot, RendersEveryNodeAndEdge) {
  Rng rng(121);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  bb->set_training(false);
  auto plan = graph::compile(*bb, {1, 3, 16, 16});
  const std::string dot = graph::dump_dot(*plan);
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(dot.find("input"), std::string::npos);
  EXPECT_NE(dot.find("Conv2d"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // One box per node.
  for (size_t i = 0; i < plan->graph().nodes.size(); ++i)
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos);
}

// --------------------------------------------------------- split-point search

TEST(SplitSearch, BestCutsNeverLoseToHandpickedOnAnyBackbone) {
  for (models::BackboneKind kind : models::kAllBackbones) {
    Rng rng(131);
    auto bb = edge_backbone(kind, rng);
    bb->set_training(false);
    graph::SplitCostModel cost;
    cost.edge = sc::jetson_nano();
    cost.server = sc::rtx3090_server();
    cost.bandwidth_bps = 1e8;  // 100 Mb/s: the wire matters
    const Tensor probe = random_image(231);
    const auto r =
        graph::search_split_point(*bb, {1, 3, 16, 16}, cost, &probe);
    ASSERT_EQ(r.frontier.size(), bb->size() + 1);
    ASSERT_EQ(r.handpicked, bb->size());
    EXPECT_GT(r.best_serial, 0u);
    EXPECT_GT(r.best_pipelined, 0u);
    const auto& hand = r.frontier[r.handpicked];
    EXPECT_LE(r.frontier[r.best_serial].serial_s(), hand.serial_s())
        << models::backbone_name(kind);
    EXPECT_LE(r.frontier[r.best_pipelined].bottleneck_s(),
              hand.bottleneck_s())
        << models::backbone_name(kind);
    // Probe-measured wire bytes are real sizes, never below the header.
    for (const auto& c : r.frontier) EXPECT_GT(c.wire_bytes, 0);
  }
}

TEST(SplitSearch, EntropyCodedProbeShrinksWireBytes) {
  Rng rng(141);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  bb->set_training(false);
  graph::SplitCostModel raw_cost;
  raw_cost.edge = sc::jetson_nano();
  raw_cost.server = sc::rtx3090_server();
  graph::SplitCostModel coded = raw_cost;
  coded.encoding = sc::ZbEncoding::kInt8;
  coded.codec = sc::WireCodec::kEntropy;
  const Tensor probe = random_image(241);
  const auto rr = graph::search_split_point(*bb, {1, 3, 16, 16}, raw_cost,
                                            &probe);
  const auto rc =
      graph::search_split_point(*bb, {1, 3, 16, 16}, coded, &probe);
  // Post-ReLU activations quantise + entropy-code well below raw f32 at
  // every interior boundary.
  for (size_t k = 1; k < rr.frontier.size(); ++k)
    EXPECT_LT(rc.frontier[k].wire_bytes, rr.frontier[k].wire_bytes)
        << "cut " << k;
}

TEST(SplitSearch, RetimeMovesTheBestCutWithBandwidth) {
  Rng rng(151);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  bb->set_training(false);
  graph::SplitCostModel cost;
  cost.edge = sc::jetson_nano();
  cost.server = sc::rtx3090_server();
  cost.bandwidth_bps = 1e9;
  auto r = graph::search_split_point(*bb, {1, 3, 16, 16}, cost);
  // Starve the link: wire time dominates, so the best cut must sit at (or
  // tie with) a boundary whose payload is minimal among candidates.
  cost.bandwidth_bps = 1e4;
  graph::retime(r, cost);
  int64_t min_bytes = r.frontier[1].wire_bytes;
  for (size_t k = 1; k < r.frontier.size(); ++k)
    min_bytes = std::min(min_bytes, r.frontier[k].wire_bytes);
  EXPECT_EQ(r.frontier[r.best_pipelined].wire_bytes, min_bytes);
  for (const auto& c : r.frontier) EXPECT_GT(c.wire_s, 0.0);
}

// Cut enumeration, the cut cost model and the three selectors.

graph::SplitCostModel jetson_to_rtx(double bandwidth_bps) {
  graph::SplitCostModel cost;
  cost.edge = sc::jetson_nano();
  cost.server = sc::rtx3090_server();
  cost.bandwidth_bps = bandwidth_bps;
  return cost;
}

TEST(SplitSearch, EnumeratesEveryCut) {
  Rng rng(1);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  const Shape in{1, 3, 20, 20};
  const auto f = graph::search_split_point(*bb, in, jetson_to_rtx(1e9))
                     .frontier;
  ASSERT_EQ(f.size(), bb->size() + 1);
  for (size_t k = 0; k < f.size(); ++k) EXPECT_EQ(f[k].index, k);
  // Cut 0 is the raw input (RoC-like).
  EXPECT_EQ(f[0].label, "input");
  EXPECT_EQ(f[0].cut_elems, 3 * 20 * 20);
  EXPECT_EQ(f[0].edge_flops, 0);
  // The final cut ships the flattened Z_b and leaves no backbone work
  // remote.
  EXPECT_EQ(f.back().server_flops, 0);
  EXPECT_EQ(f.back().cut_shape, bb->output_shape(in));
}

TEST(SplitSearch, FlopsConserveAcrossCuts) {
  Rng rng(2);
  auto bb = edge_backbone(models::BackboneKind::kMobileNetV3, rng);
  const Shape in{1, 3, 20, 20};
  graph::SplitCostModel cost = jetson_to_rtx(1e9);
  cost.server_extra_flops = 1000;  // the heads always run server-side
  const int64_t total = bb->flops(in) + cost.server_extra_flops;
  for (const auto& c : graph::search_split_point(*bb, in, cost).frontier)
    EXPECT_EQ(c.edge_flops + c.server_flops, total);
}

TEST(SplitSearch, MinSizeSelectionIsTrueMinimum) {
  Rng rng(3);
  auto bb = edge_backbone(models::BackboneKind::kEfficientNet, rng);
  const auto f =
      graph::search_split_point(*bb, {1, 3, 20, 20}, jetson_to_rtx(1e9))
          .frontier;
  const size_t best = graph::select_split_min_size(f);
  EXPECT_GT(best, 0u);
  for (size_t k = 1; k < f.size(); ++k)
    EXPECT_LE(f[best].cut_elems, f[k].cut_elems);
  // Deep nets compress: the chosen cut beats shipping the raw input.
  EXPECT_LT(f[best].cut_elems, f[0].cut_elems);
}

TEST(SplitSearch, BestSerialIsArgminOnSlowChannel) {
  Rng rng(4);
  auto bb = edge_backbone(models::BackboneKind::kMobileNetV3, rng);
  const auto r =
      graph::search_split_point(*bb, {1, 3, 20, 20}, jetson_to_rtx(1e6));
  EXPECT_GT(r.best_serial, 0u);
  const double best = r.frontier[r.best_serial].serial_s();
  for (size_t k = 1; k < r.frontier.size(); ++k)
    EXPECT_LE(best, r.frontier[k].serial_s());
}

TEST(SplitSearch, FastChannelMakesRocCheapestButNeverSelectsIt) {
  // With an (unrealistically) fast channel and a slow edge, offloading
  // everything is cheapest. The search reports that RoC baseline (cut 0)
  // but never selects it, so the best split is the earliest cut.
  Rng rng(5);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  graph::SplitCostModel cost = jetson_to_rtx(1e13);
  cost.edge.effective_gflops = 0.01;
  const auto r = graph::search_split_point(*bb, {1, 3, 20, 20}, cost);
  for (size_t k = 1; k < r.frontier.size(); ++k)
    EXPECT_LT(r.frontier[0].serial_s(), r.frontier[k].serial_s());
  EXPECT_EQ(r.best_serial, 1u);
}

TEST(SplitSearch, SaliencyIsFiniteAndBoundedLength) {
  Rng rng(6);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  Tensor x({2, 3, 20, 20});
  rng.fill_uniform(x, 0.0f, 1.0f);
  Tensor g(bb->output_shape(x.shape()));
  rng.fill_uniform(g, -1.0f, 1.0f);
  const auto sal = graph::layer_saliency(*bb, x, g);
  ASSERT_EQ(sal.size(), bb->size() + 1);
  for (double s : sal) {
    EXPECT_GE(s, 0.0);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(SplitSearch, SaliencySelectionRespectsSizeSlack) {
  Rng rng(7);
  auto bb = edge_backbone(models::BackboneKind::kVgg16, rng);
  const Shape in{1, 3, 20, 20};
  const auto f =
      graph::search_split_point(*bb, in, jetson_to_rtx(1e9)).frontier;
  Tensor x(in);
  rng.fill_uniform(x, 0.0f, 1.0f);
  Tensor g(bb->output_shape(in));
  rng.fill_uniform(g, -1.0f, 1.0f);
  const auto sal = graph::layer_saliency(*bb, x, g);
  const size_t best = graph::select_split_saliency(f, sal, 4.0);
  EXPECT_GT(best, 0u);
  // The chosen cut's size honours the slack constraint.
  int64_t min_elems = f[1].cut_elems;
  for (size_t k = 2; k < f.size(); ++k)
    min_elems = std::min(min_elems, f[k].cut_elems);
  EXPECT_LE(f[best].cut_elems, 4 * min_elems);
}

TEST(SplitSearch, SelectorsRejectEmptyInput) {
  const std::vector<graph::SplitCandidate> empty;
  EXPECT_THROW(graph::select_split_min_size(empty), std::invalid_argument);
  EXPECT_THROW(graph::select_split_saliency(empty, {}),
               std::invalid_argument);
}

// Across random device profiles and links, no split beats best_serial.
class SplitSearchOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SplitSearchOptimality, BestSerialIsArgmin) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto bb = edge_backbone(models::BackboneKind::kMobileNetV3, rng);
  graph::SplitCostModel cost;
  cost.edge = {"edge", 1LL << 30,
               static_cast<double>(rng.uniform(0.5f, 100.0f))};
  cost.server = {"server", 1LL << 34,
                 static_cast<double>(rng.uniform(100.0f, 10000.0f))};
  cost.bandwidth_bps = static_cast<double>(rng.uniform(1e6f, 1e9f));
  const auto r = graph::search_split_point(*bb, {1, 3, 16, 16}, cost);
  const double best = r.frontier[r.best_serial].serial_s();
  for (size_t k = 1; k < r.frontier.size(); ++k)
    EXPECT_LE(best, r.frontier[k].serial_s());
}

INSTANTIATE_TEST_SUITE_P(RandomRigs, SplitSearchOptimality,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace mtlsplit
