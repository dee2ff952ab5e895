// M1: google-benchmark microbenchmarks of the substrate kernels — the ops
// the edge device actually executes per inference.
//
// Every run also writes BENCH_OPS.json (google-benchmark's JSON schema, one
// entry per benchmark with `size` / `threads` / `GFLOPs` user counters) so
// the perf trajectory can be tracked across PRs as BENCH_*.json artifacts.
// Thread count follows MTLSPLIT_NUM_THREADS, except BM_MatMulThreads and
// BM_BackboneForwardThreads, which pin the pool per measurement to expose
// the scaling curve, and BM_ConvVsGemm, which runs on one lane.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "graph/executor.hpp"
#include "models/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mtlsplit;

/// Standard counters: problem size, pool lanes, and flops as a rate
/// (rendered as GFLOP/s, stored as flops-per-second in the JSON).
void set_op_counters(benchmark::State& state, int64_t size,
                     int64_t flops_per_iter) {
  state.counters["size"] = static_cast<double>(size);
  state.counters["threads"] = static_cast<double>(runtime::num_threads());
  if (flops_per_iter > 0)
    state.counters["GFLOPs"] = benchmark::Counter(
        static_cast<double>(state.iterations() * flops_per_iter),
        benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void BM_MatMul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  rng.fill_uniform(a, -1.0f, 1.0f);
  rng.fill_uniform(b, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(ops::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  set_op_counters(state, n, 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// GEMM thread-scaling curve at the acceptance shape (256^3), measured
// wall-clock: the pool is pinned to the requested lane count.
void BM_MatMulThreads(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  runtime::set_num_threads(lanes);
  constexpr int64_t n = 256;
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  rng.fill_uniform(a, -1.0f, 1.0f);
  rng.fill_uniform(b, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(ops::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  set_op_counters(state, n, 2 * n * n * n);
  // Restore the default pool so later benchmarks don't run pinned.
  runtime::set_num_threads(runtime::default_num_threads());
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_MatMulTn(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  Tensor a({n, n}), b({n, n});
  rng.fill_uniform(a, -1.0f, 1.0f);
  rng.fill_uniform(b, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(ops::matmul_tn(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  set_op_counters(state, n, 2 * n * n * n);
}
BENCHMARK(BM_MatMulTn)->Arg(64)->Arg(128);

void BM_Conv2dForward(benchmark::State& state) {
  const auto c = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(c, c, 3, 1, 1, rng);
  Tensor x({1, c, 16, 16});
  rng.fill_uniform(x, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * conv.flops({1, c, 16, 16}));
  set_op_counters(state, c, conv.flops({1, c, 16, 16}));
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

// Batch-level conv parallelism with the persistent im2col workspace.
void BM_Conv2dForwardBatch(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  Tensor x({n, 16, 16, 16});
  rng.fill_uniform(x, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * conv.flops({n, 16, 16, 16}));
  set_op_counters(state, n, conv.flops({n, 16, 16, 16}));
}
BENCHMARK(BM_Conv2dForwardBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_Conv2dBackward(benchmark::State& state) {
  const auto c = state.range(0);
  Rng rng(4);
  nn::Conv2d conv(c, c, 3, 1, 1, rng);
  Tensor x({1, c, 16, 16});
  rng.fill_uniform(x, -1.0f, 1.0f);
  const Tensor y = conv.forward(x);
  Tensor g(y.shape());
  rng.fill_uniform(g, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g));
    conv.zero_grad();
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16);

// Depthwise over one sample: c channels of hw x hw, kernel k, stride s,
// pad k / 2. 3x3 s1 on 16x16 is the stem-side geometry, k5 s2 on 8x8x64
// EfficientNet's served stage, and 18 channels leave a remainder of two
// after the four-channel blocks.
void BM_DepthwiseForward(benchmark::State& state) {
  const auto c = state.range(0), k = state.range(1), s = state.range(2),
             hw = state.range(3);
  Rng rng(5);
  nn::DepthwiseConv2d dw(c, k, s, k / 2, rng);
  Tensor x({1, c, hw, hw});
  rng.fill_uniform(x, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(dw.forward(x));
  set_op_counters(state, c, dw.flops(x.shape()));
}
BENCHMARK(BM_DepthwiseForward)
    ->ArgNames({"c", "k", "s", "hw"})
    ->Args({16, 3, 1, 16})
    ->Args({64, 3, 1, 16})
    ->Args({18, 3, 1, 16})
    ->Args({64, 5, 2, 8});

// One activation over 12,288 floats, EfficientNet's widest BN + SiLU
// output (48 x 16 x 16).
void BM_ActivationSweep(benchmark::State& state) {
  const auto fn = static_cast<nn::ActFn>(state.range(0));
  constexpr int64_t n = 12288;
  Rng rng(11);
  Tensor x({n});
  rng.fill_uniform(x, -6.0f, 6.0f);
  Tensor y(x.shape());
  for (auto _ : state) {
    nn::act_sweep(fn, x.data(), n, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(nn::act_fn_name(fn));
  set_op_counters(state, n, 0);
}
BENCHMARK(BM_ActivationSweep)
    ->Arg(static_cast<int>(nn::ActFn::kSiLU))
    ->Arg(static_cast<int>(nn::ActFn::kHardSwish));

void BM_BatchNormForward(benchmark::State& state) {
  Rng rng(6);
  nn::BatchNorm2d bn(32);
  Tensor x({8, 32, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(bn.forward(x));
}
BENCHMARK(BM_BatchNormForward);

// One sample's 3x3 stride-1 pad-1 patch matrix: c channels of hw x hw,
// the widest VGG16 conv input on each plane size of a 32x32 frame (the
// only im2col geometry served plans run).
void BM_Im2col(benchmark::State& state) {
  const auto c = state.range(0), hw = state.range(1);
  Rng rng(7);
  Tensor img({c, hw, hw});
  rng.fill_uniform(img, -1.0f, 1.0f);
  const ConvGeom g{.in_c = c, .in_h = hw, .in_w = hw, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .pad = 1};
  Tensor cols;
  for (auto _ : state) {
    im2col(img.data(), g, cols);
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * cols.numel());
  set_op_counters(state, c, 0);
}
BENCHMARK(BM_Im2col)
    ->ArgNames({"c", "hw"})
    ->Args({16, 32})
    ->Args({32, 16})
    ->Args({64, 8})
    ->Args({64, 4});

// A conv layer against the bare GEMM it lowers to, batch 1 on one lane
// (arg: layer). Each iteration times conv2d_forward, with no bias and no
// epilogue, then the gemm of the same (out_c, OH*OW, fan_in) shape on the
// layer's patch matrix, which for a 1x1 conv is its input. The row reports
// each call's fastest time and their ratio, so a slow spell on a shared
// host moves neither side alone. Layer 0 is VGG16's 16->16 3x3 conv on a
// 32x32 plane, layer 1 an MBConv 12->48 1x1 expand on 16x16. CI fails when
// a conv's ratio exceeds its bound: what a conv adds to its GEMM is the
// patch copy.
void BM_ConvVsGemm(benchmark::State& state) {
  struct Layer {
    int64_t in_c, out_c, k, pad, hw;
    const char* name;
  };
  static constexpr Layer kLayers[] = {
      {16, 16, 3, 1, 32, "VGG16 3x3 16->16 32x32"},
      {12, 48, 1, 0, 16, "MBConv 1x1 12->48 16x16"}};
  const Layer& l = kLayers[state.range(0)];
  runtime::set_num_threads(1);
  const ConvGeom g{.in_c = l.in_c, .in_h = l.hw, .in_w = l.hw,
                   .kernel_h = l.k, .kernel_w = l.k, .stride = 1,
                   .pad = l.pad};
  const int64_t fan_in = l.in_c * l.k * l.k, ohw = g.out_h() * g.out_w();
  Rng rng(12);
  Tensor w({l.out_c, fan_in}), x({l.in_c, l.hw, l.hw}), y({l.out_c, ohw});
  rng.fill_uniform(w, -1.0f, 1.0f);
  rng.fill_uniform(x, -1.0f, 1.0f);
  Tensor cols;
  im2col(x.data(), g, cols);
  const float* patches = l.k == 1 ? x.data() : cols.data();
  using clock = std::chrono::steady_clock;
  double conv_s = 1e9, gemm_s = 1e9;
  for (auto _ : state) {
    const auto t0 = clock::now();
    nn::conv2d_forward(x.data(), 1, g, l.out_c, w.data(), nullptr,
                       nn::ActFn::kNone, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
    const auto t1 = clock::now();
    ops::detail::gemm(l.out_c, ohw, fan_in, w.data(), patches, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
    const auto t2 = clock::now();
    conv_s = std::min(conv_s, std::chrono::duration<double>(t1 - t0).count());
    gemm_s = std::min(gemm_s, std::chrono::duration<double>(t2 - t1).count());
  }
  state.SetLabel(l.name);
  state.counters["conv_us"] = conv_s * 1e6;
  state.counters["gemm_us"] = gemm_s * 1e6;
  state.counters["ratio"] = conv_s / gemm_s;
  // Restore the default pool so later benchmarks don't run pinned.
  runtime::set_num_threads(runtime::default_num_threads());
}
BENCHMARK(BM_ConvVsGemm)->ArgName("layer")->Arg(0)->Arg(1)->UseRealTime();

void BM_SerializeZb(benchmark::State& state) {
  // A realistic Z_b: MobileNetV3-Small's 28k floats.
  Rng rng(8);
  Tensor zb({1, 28224});
  rng.fill_normal(zb, 0.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(serialize_tensor(zb));
  state.SetBytesProcessed(state.iterations() * zb.numel() * 4);
}
BENCHMARK(BM_SerializeZb);

void BM_QuantizeZb(benchmark::State& state) {
  Rng rng(9);
  Tensor zb({1, 28224});
  rng.fill_normal(zb, 0.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(sc::quantize_int8(zb));
  state.SetBytesProcessed(state.iterations() * zb.numel() * 4);
}
BENCHMARK(BM_QuantizeZb);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(10);
  Tensor x({64, 1000});
  rng.fill_normal(x, 0.0f, 3.0f);
  for (auto _ : state) benchmark::DoNotOptimize(ops::softmax_rows(x));
}
BENCHMARK(BM_SoftmaxRows);

// Whole-backbone forward, eager Module::forward vs the compiled graph
// executor (exact = bitwise plan, fused = BN-folded plan), batch 8 at the
// serving image size. CI gates on compiled-never-slower-than-eager for all
// three edge backbones using these entries (args: backbone kind / mode).
void BM_BackboneForward(benchmark::State& state) {
  const auto kind = static_cast<models::BackboneKind>(state.range(0));
  const int64_t mode = state.range(1);  // 0 = eager, 1 = exact, 2 = fused
  Rng rng(33);
  auto bb = models::build_backbone(
      {kind, models::BackboneScale::kEdge, 3}, rng);
  bb->set_training(false);
  Tensor x({8, 3, 16, 16});
  rng.fill_uniform(x, 0.0f, 1.0f);
  if (mode == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(bb->forward(x));
  } else {
    auto plan = graph::compile(*bb, {1, 3, 16, 16}, {.exact = mode == 1});
    graph::GraphExecutor exec(plan);
    for (auto _ : state) benchmark::DoNotOptimize(exec.run(x));
  }
  state.SetLabel(models::backbone_name(kind) + std::string("/") +
                 (mode == 0 ? "eager" : mode == 1 ? "exact" : "fused"));
  set_op_counters(state, 8, 8 * bb->flops({1, 3, 16, 16}));
}
BENCHMARK(BM_BackboneForward)
    ->ArgNames({"bb", "mode"})
    ->Args({0, 0})->Args({0, 1})->Args({0, 2})   // VGG16
    ->Args({1, 0})->Args({1, 1})->Args({1, 2})   // MobileNetV3
    ->Args({2, 0})->Args({2, 1})->Args({2, 2});  // EfficientNet

// Compiled exact-mode batch-8 forward with the pool pinned to 1 and to 4
// lanes (args: backbone kind / lanes), measured wall-clock. CI gates on
// the 4-lane time staying within 3% of the 1-lane time on every edge
// backbone: GraphExecutor forks once per run, one sample range per lane.
void BM_BackboneForwardThreads(benchmark::State& state) {
  const auto kind = static_cast<models::BackboneKind>(state.range(0));
  runtime::set_num_threads(static_cast<int>(state.range(1)));
  Rng rng(33);
  auto bb = models::build_backbone(
      {kind, models::BackboneScale::kEdge, 3}, rng);
  bb->set_training(false);
  Tensor x({8, 3, 16, 16});
  rng.fill_uniform(x, 0.0f, 1.0f);
  graph::GraphExecutor exec(graph::compile(*bb, {1, 3, 16, 16}));
  for (auto _ : state) benchmark::DoNotOptimize(exec.run(x));
  state.SetLabel(models::backbone_name(kind) + std::string("/exact"));
  set_op_counters(state, 8, 8 * bb->flops({1, 3, 16, 16}));
  // Restore the default pool so later benchmarks don't run pinned.
  runtime::set_num_threads(runtime::default_num_threads());
}
BENCHMARK(BM_BackboneForwardThreads)
    ->ArgNames({"bb", "lanes"})
    ->ArgsProduct({{0, 1, 2}, {1, 4}})
    ->UseRealTime();

// perfbench lossy_wire's edge stage: two ScServer replicas, each with its
// own executor over one shared VGG16 plan, run batches of two 32x32 images
// at the same time on the default pool. google-benchmark divides the wall
// time by both threads' iterations, so a row reads half the time one
// executor waits for its batch.
void BM_SharedPlanForward(benchmark::State& state) {
  static const std::shared_ptr<const graph::CompiledPlan> plan = [] {
    Rng rng(33);
    auto bb = models::build_backbone(
        {models::BackboneKind::kVgg16, models::BackboneScale::kEdge, 3}, rng);
    bb->set_training(false);
    return graph::compile(*bb, {1, 3, 32, 32});
  }();
  graph::GraphExecutor exec(plan);
  Rng rng(34 + static_cast<uint64_t>(state.thread_index()));
  Tensor x({2, 3, 32, 32});
  rng.fill_uniform(x, 0.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(exec.run(x));
  state.SetLabel("VGG16/exact/32x32/batch2");
  // Per-thread values, averaged so the row does not sum the two threads.
  constexpr auto kAvg = benchmark::Counter::kAvgThreads;
  state.counters["size"] = benchmark::Counter(2, kAvg);
  state.counters["threads"] = benchmark::Counter(runtime::num_threads(), kAvg);
}
BENCHMARK(BM_SharedPlanForward)->Threads(2)->UseRealTime();

}  // namespace

// Custom main: identical to BENCHMARK_MAIN() plus a JSON mirror of every
// result (with the user counters above) written to BENCH_OPS.json unless
// the caller already chose an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_OPS.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
      has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
