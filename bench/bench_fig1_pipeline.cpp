// Figure 1 reproduction: the end-to-end MTL-Split pipeline.
//
//   x -> [edge] shared backbone M_b -> Z_b -> serialise -> network ->
//   deserialise -> [server] task heads H_1..H_N -> y_1..y_N
//
// This bench executes the pipeline through the real wire format and
// reports (a) bit-exactness of the split execution vs the monolithic
// model, (b) the modelled latency breakdown per deployment paradigm —
// including the entropy-coded wire (DESIGN.md §9), (c) how the SC
// advantage moves as the channel degrades, and (d) the pipelined stream
// with raw vs compressed wire stage times. Everything lands in
// BENCH_FIG1_PIPELINE.json. Two gates check the bit-exactness claims: the
// fp32 paradigms (LoC, RoC, SC fp32) equal the monolithic model, and the
// lossless codec leaves the int8 logits unchanged. The bench exits 1
// unless both pass.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "data/shapes3d.hpp"
#include "gate.hpp"
#include "graph/split_search.hpp"
#include "json.hpp"
#include "models/backbone.hpp"
#include "mtl/model_factory.hpp"
#include "mtl/trainer.hpp"
#include "sc/deployment.hpp"

using namespace mtlsplit;

namespace {

struct ParadigmRow {
  const char* name;
  sc::InferenceResult r;
  bool bit_exact;
};

struct StreamStages {
  double edge_s = 0.0, server_s = 0.0;
  sc::WireTally wire;
  double pipelined_s = 0.0;
};

StreamStages stage_totals(const sc::StreamResult& sr) {
  StreamStages out;
  for (const auto& r : sr.results) {
    out.edge_s += r.latency.edge_compute_s;
    out.server_s += r.latency.server_compute_s;
    out.wire += r.latency.wire;
  }
  out.pipelined_s = sr.analytic_pipelined_s;
  return out;
}

/// One backbone's automatic split-point search (graph/split_search.hpp):
/// the full frontier plus the chosen cuts, at a fixed link bandwidth.
struct SearchRow {
  std::string backbone;
  double bandwidth_bps = 0.0;
  graph::SplitSearchResult r;
};

/// BENCH_FIG1_PIPELINE.json: the paradigm rows, the stream's stage
/// totals, every backbone's split-point frontier and the gates.
bench::Json report(const std::vector<ParadigmRow>& rows,
                   const StreamStages& raw_stage,
                   const StreamStages& codec_stage, size_t stream_len,
                   const std::vector<SearchRow>& searches,
                   const std::vector<bench::Gate>& gates) {
  using bench::Json;
  Json out{{"bench", "fig1_pipeline"}};
  Json& paradigms = out["paradigms"] = Json::array();
  for (const ParadigmRow& row : rows) {
    const auto& l = row.r.latency;
    paradigms.push({{"name", row.name}, {"edge_ms", 1e3 * l.edge_compute_s},
                    {"wire_ms", 1e3 * l.wire.time_s},
                    {"server_ms", 1e3 * l.server_compute_s},
                    {"total_ms", 1e3 * l.total_s()},
                    {"wire_bytes", l.wire.bytes},
                    {"wire_bytes_raw", l.wire.bytes_raw},
                    {"bit_exact", row.bit_exact}});
  }
  auto stage = [](const StreamStages& s) -> Json {
    return {{"edge_ms", 1e3 * s.edge_s}, {"wire_ms", 1e3 * s.wire.time_s},
            {"server_ms", 1e3 * s.server_s},
            {"pipelined_ms", 1e3 * s.pipelined_s},
            {"wire_bytes", s.wire.bytes}, {"wire_bytes_raw", s.wire.bytes_raw}};
  };
  out["stream"] = {{"items", stream_len},
                   {"wire_raw", stage(raw_stage)},
                   {"wire_codec", stage(codec_stage)}};
  Json& split_search = out["split_search"] = Json::array();
  for (const SearchRow& row : searches) {
    Json frontier = Json::array();
    for (const auto& c : row.r.frontier)
      frontier.push({{"index", c.index}, {"label", c.label},
                     {"edge_flops", c.edge_flops}, {"wire_bytes", c.wire_bytes},
                     {"server_flops", c.server_flops},
                     {"serial_ms", 1e3 * c.serial_s()},
                     {"bottleneck_ms", 1e3 * c.bottleneck_s()}});
    split_search.push({{"backbone", row.backbone},
                       {"bandwidth_bps", row.bandwidth_bps},
                       {"handpicked", row.r.handpicked},
                       {"best_serial", row.r.best_serial},
                       {"best_pipelined", row.r.best_pipelined},
                       {"frontier", frontier}});
  }
  Json& gate_rows = out["gates"] = Json::array();
  for (const bench::Gate& g : gates) gate_rows.push(g.json());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_graph = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--dump-graph") == 0) dump_graph = true;

  // A small trained model so the pipeline carries real task signal.
  data::Shapes3dConfig dc;
  dc.count = 600;
  dc.image_size = 16;
  const auto ds = data::make_shapes3d_t1t2(dc);

  Rng rng(21);
  core::ModelFactoryConfig mc;
  mc.backbone = models::BackboneKind::kMobileNetV3;
  mc.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(mc, {ds.task(0), ds.task(1)}, rng);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.lr = 2e-3f;
  core::train_model(*model, ds, tc);
  model->set_training(false);

  const data::Batch batch =
      data::gather_batch(ds, std::vector<int64_t>{0, 1, 2, 3});
  const auto mono = model->forward(batch.images);

  std::printf("Figure 1 pipeline: edge backbone -> Z_b -> network -> heads\n");
  std::printf("Backbone: MobileNetV3 (edge scale), tasks: %s (%lld), %s (%lld)\n",
              model->task(0).name.c_str(),
              static_cast<long long>(model->task(0).num_classes),
              model->task(1).name.c_str(),
              static_cast<long long>(model->task(1).num_classes));
  std::printf("|Z_b| = %lld floats per image\n\n",
              static_cast<long long>(model->zb_dim({3, 16, 16})));

  // --- Paradigm comparison on the paper's gigabit channel.
  sc::Channel ch({.bandwidth_bps = 1e9, .base_latency_s = 0.01});
  const auto edge = sc::jetson_nano();
  const auto server = sc::rtx3090_server();
  sc::ScDeployment sc_f32(*model, ch, edge, server);
  sc::ScDeployment sc_i8(*model, ch, edge, server,
                         {.encoding = sc::ZbEncoding::kInt8});
  // The compressed wire: entropy-coded frames on top of int8. Lossless,
  // so its logits must equal the plain int8 split's bit for bit.
  sc::ScDeployment sc_i8c(*model, ch, edge, server,
                          {.encoding = sc::ZbEncoding::kInt8,
                           .codec = sc::WireCodec::kEntropy});
  sc::RocDeployment roc(*model, ch, server);
  sc::LocDeployment loc(*model, edge);

  auto exact = [&](const std::vector<Tensor>& logits) {
    for (size_t j = 0; j < logits.size(); ++j)
      if (!logits[j].equals(mono[j])) return false;
    return true;
  };
  std::vector<ParadigmRow> rows;
  {
    auto r = loc.infer(batch.images);
    rows.push_back({"LoC (edge only)", r, exact(r.logits)});
  }
  {
    auto r = roc.infer(batch.images);
    rows.push_back({"RoC (raw input)", r, exact(r.logits)});
  }
  {
    auto r = sc_f32.infer(batch.images);
    rows.push_back({"SC fp32 Z_b", r, exact(r.logits)});
  }
  const auto r_i8 = sc_i8.infer(batch.images);
  rows.push_back({"SC int8 Z_b", r_i8, exact(r_i8.logits)});
  int64_t codec_changed = 0;  // tasks whose int8 logits the codec changed
  {
    auto r = sc_i8c.infer(batch.images);
    rows.push_back({"SC int8+codec", r, exact(r.logits)});
    for (size_t j = 0; j < r.logits.size(); ++j)
      codec_changed += r.logits[j].equals(r_i8.logits[j]) ? 0 : 1;
  }
  const std::vector<bench::Gate> gates = {
      bench::Gate::check("bit_exact/fp32_paradigms_differing",
                         !rows[0].bit_exact + !rows[1].bit_exact +
                             !rows[2].bit_exact,
                         "==", 0),
      bench::Gate::check("codec/int8_logits_differing", codec_changed, "==",
                         0)};

  std::printf("%-16s | %10s | %10s | %10s | %10s | %9s | %s\n", "paradigm",
              "edge ms", "wire ms", "server ms", "total ms", "wire KB",
              "bit-exact");
  for (int i = 0; i < 95; ++i) std::putchar('-');
  std::putchar('\n');
  for (const ParadigmRow& row : rows) {
    const auto& l = row.r.latency;
    std::printf("%-16s | %10.3f | %10.3f | %10.3f | %10.3f | %9.1f | %s\n",
                row.name, 1e3 * l.edge_compute_s, 1e3 * l.wire.time_s,
                1e3 * l.server_compute_s, 1e3 * l.total_s(),
                static_cast<double>(l.wire.bytes) / 1024.0,
                row.bit_exact ? "yes" : "no (int8, lossy by design)");
  }
  for (int i = 0; i < 95; ++i) std::putchar('-');
  std::putchar('\n');

  // --- Channel-degradation sweep (the §1 motivation).
  std::printf(
      "\nDegraded channel sweep (4-image batch, per-inference totals, ms):\n");
  std::printf("%-12s | %10s | %10s | %10s\n", "degradation", "RoC", "SC fp32",
              "SC int8");
  for (int i = 0; i < 50; ++i) std::putchar('-');
  std::putchar('\n');
  for (double deg : {0.0, 0.5, 0.9, 0.99}) {
    sc::Channel dch({.bandwidth_bps = 1e9, .base_latency_s = 0.01,
                     .degradation = deg});
    sc::RocDeployment droc(*model, dch, server);
    sc::ScDeployment dsc(*model, dch, edge, server);
    sc::ScDeployment dsc8(*model, dch, edge, server,
                          {.encoding = sc::ZbEncoding::kInt8});
    std::printf("%-12.2f | %10.3f | %10.3f | %10.3f\n", deg,
                1e3 * droc.infer(batch.images).latency.total_s(),
                1e3 * dsc.infer(batch.images).latency.total_s(),
                1e3 * dsc8.infer(batch.images).latency.total_s());
  }
  // --- Pipelined stream: edge compute / wire / server compute overlapped
  // across a stream of single-image inferences (runtime layer, DESIGN.md §7),
  // with the wire stage measured raw and entropy-coded (DESIGN.md §9).
  StreamStages raw_stage, codec_stage;
  size_t stream_len = 0;
  {
    std::vector<Tensor> stream_in;
    for (int64_t i = 0; i < 16; ++i)
      stream_in.push_back(data::gather_batch(ds, std::vector<int64_t>{i})
                              .images);
    stream_len = stream_in.size();
    sc::Channel sch({.bandwidth_bps = 1e9, .base_latency_s = 0.01});
    sc::ScDeployment sdep(*model, sch, edge, server);

    // Sequential reference: one infer() at a time.
    const auto t0 = std::chrono::steady_clock::now();
    double serial_analytic = 0.0;
    for (const Tensor& x : stream_in)
      serial_analytic += sdep.infer(x).latency.total_s();
    const double serial_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const sc::StreamResult sr = sdep.infer_stream(stream_in);
    raw_stage = stage_totals(sr);
    std::printf("\nPipelined SC stream (%zu single-image inferences):\n",
                stream_in.size());
    std::printf("  stage totals: edge %.3f ms | wire %.3f ms | server %.3f ms\n",
                1e3 * raw_stage.edge_s, 1e3 * raw_stage.wire.time_s,
                1e3 * raw_stage.server_s);
    std::printf("  analytic   serial %8.3f ms   pipelined %8.3f ms (%.2fx)\n",
                1e3 * serial_analytic, 1e3 * sr.analytic_pipelined_s,
                serial_analytic / sr.analytic_pipelined_s);
    std::printf("  measured   serial %8.3f ms   pipelined %8.3f ms (%.2fx)\n",
                1e3 * serial_wall, 1e3 * sr.measured_wall_s,
                serial_wall / sr.measured_wall_s);
    std::printf(
        "  (the pipelined stream collapses onto its bottleneck stage:\n"
        "   compute hides behind the channel; speedup over serial grows as\n"
        "   the stages approach balance and cores become available)\n");

    // Same stream with the compressed wire (int8 + entropy frames): the
    // wire stage — the shoulder the pipeline exposes — shrinks with the
    // bytes, and the pipelined total follows it.
    sc::Channel cch({.bandwidth_bps = 1e9, .base_latency_s = 0.01});
    sc::ScDeployment cdep(*model, cch, edge, server,
                          {.encoding = sc::ZbEncoding::kInt8,
                           .codec = sc::WireCodec::kEntropy});
    codec_stage = stage_totals(cdep.infer_stream(stream_in));
    std::printf("\nCompressed wire stage (int8 + entropy codec, same stream):\n");
    std::printf("  wire stage %.3f ms -> %.3f ms | bytes fp32 %lld -> "
                "int8+codec %lld | pipelined %.3f ms -> %.3f ms\n",
                1e3 * raw_stage.wire.time_s, 1e3 * codec_stage.wire.time_s,
                static_cast<long long>(raw_stage.wire.bytes),
                static_cast<long long>(codec_stage.wire.bytes),
                1e3 * raw_stage.pipelined_s, 1e3 * codec_stage.pipelined_s);
    std::printf("  (codec alone: %lld -> %lld int8 bytes; a trained "
                "hard-swish bottleneck is dense, so the frame stores —\n"
                "   the sparse-ReLU case is bench_serving's wire scenario)\n",
                static_cast<long long>(codec_stage.wire.bytes_raw),
                static_cast<long long>(codec_stage.wire.bytes));
  }

  // --- Automatic split-point search (graph/split_search.hpp): every
  // candidate boundary of every backbone family, costed with real encoded
  // wire bytes from a probe image. The "handpicked" cut is MTL-Split's
  // backbone/heads boundary; the search must reproduce or improve it.
  std::vector<SearchRow> searches;
  {
    graph::SplitCostModel cost;
    cost.edge = edge;
    cost.server = server;
    cost.bandwidth_bps = 1e8;  // 100 Mb/s: wire and compute both matter
    cost.base_latency_s = 0.001;
    cost.encoding = sc::ZbEncoding::kInt8;
    cost.codec = sc::WireCodec::kEntropy;
    const Tensor probe =
        data::gather_batch(ds, std::vector<int64_t>{0}).images;
    std::printf("\nAutomatic split search (int8+codec wire, 100 Mb/s):\n");
    std::printf("%-14s | %9s | %22s | %22s\n", "backbone", "handpicked",
                "best serial (ms)", "best pipelined (ms)");
    for (int i = 0; i < 78; ++i) std::putchar('-');
    std::putchar('\n');
    for (models::BackboneKind kind : models::kAllBackbones) {
      Rng brng(77);
      auto bb = models::build_backbone(
          {kind, models::BackboneScale::kEdge, 3}, brng);
      bb->set_training(false);
      SearchRow row;
      row.backbone = models::backbone_name(kind);
      row.bandwidth_bps = cost.bandwidth_bps;
      row.r = graph::search_split_point(*bb, {1, 3, 16, 16}, cost, &probe);
      const auto& hand = row.r.frontier[row.r.handpicked];
      const auto& bs = row.r.frontier[row.r.best_serial];
      const auto& bp = row.r.frontier[row.r.best_pipelined];
      std::printf("%-14s | %9zu | cut %2zu %7.3f vs %7.3f | cut %2zu %7.3f "
                  "vs %7.3f\n",
                  row.backbone.c_str(), row.r.handpicked, row.r.best_serial,
                  1e3 * bs.serial_s(), 1e3 * hand.serial_s(),
                  row.r.best_pipelined, 1e3 * bp.bottleneck_s(),
                  1e3 * hand.bottleneck_s());
      searches.push_back(std::move(row));
    }
    // The frontier answers "where should the cut sit at bandwidth B?"
    // without re-probing: retime the stored byte/FLOP profiles.
    std::printf("\nBest pipelined cut vs link bandwidth (%s):\n",
                searches[1].backbone.c_str());
    for (double bw : {1e6, 1e7, 1e8, 1e9}) {
      graph::SplitCostModel c2 = cost;
      c2.bandwidth_bps = bw;
      graph::SplitSearchResult r2 = searches[1].r;
      graph::retime(r2, c2);
      const auto& b = r2.frontier[r2.best_pipelined];
      std::printf("  %8.0e bps -> cut %2zu (%s), bottleneck %.3f ms\n", bw,
                  r2.best_pipelined, b.label.c_str(),
                  1e3 * b.bottleneck_s());
    }
  }

  if (dump_graph) {
    // Debug view of what the deployment actually executes: the compiled
    // (exact-mode) backbone plan, Graphviz format.
    auto plan = graph::compile(model->backbone(), {1, 3, 16, 16});
    std::printf("\n--- compiled backbone plan (--dump-graph) ---\n%s",
                graph::dump_dot(*plan).c_str());
    for (const auto& pr : plan->pass_reports())
      std::printf("pass %-22s rewrites %3d  %.3f ms\n", pr.name.c_str(),
                  pr.rewrites, 1e3 * pr.seconds);
  }

  std::printf("\nGates:\n");
  for (const bench::Gate& g : gates) g.print();
  if (report(rows, raw_stage, codec_stage, stream_len, searches, gates)
          .write("BENCH_FIG1_PIPELINE.json"))
    std::printf("\nwrote BENCH_FIG1_PIPELINE.json\n");
  else
    std::fprintf(stderr, "cannot write BENCH_FIG1_PIPELINE.json\n");
  return bench::all_passed(gates) ? 0 : 1;
}
