// E15 — what watching the simulator costs, flow-solver speed on G*, and
// thread-pool replication scaling.  Step throughput, step latency and the
// per-phase profile are perfbench's (perfbench/README.md); this bench
// measures only what perfbench does not, and emits BENCH_perf_core.json.
//
// Cost protocol: one simulator on the sparse-source topology (1024 nodes,
// 4096 links, 2 sources, 2 sinks) runs kRounds rounds.  Each round visits
// every observed state, then the detached state; observers are attached
// and detached between visits, which leaves the trajectory unchanged
// (SpanTracer test AttachedTracerNeverPerturbsTheTrajectory).  A visit
// runs kSettleSteps untimed steps, then times kBlockSteps steps.  A state's
// overhead is the median over rounds of its block time divided by the same
// round's detached block time.
//   * One instance: two identical instances differ by up to 5%.
//   * Pairing within a round cancels the host's drift, best for adjacent
//     blocks, so the gated tracer row runs right before the detached block.
//   * After a telemetry session with a sink is detached, steps run slow for
//     a while (on a 4-vCPU Xeon host ~3% over 50 steps, ~1% for 100 more).
//     The settle steps absorb most of it, and the observed states run in
//     decreasing cost: the hotspot session's tail lands on the armed block,
//     whose cost dwarfs it, and the detached block follows the tracer,
//     which leaves nothing behind.
//   * The snapshot period divides the settle and the block, so every timed
//     block holds the same snapshots.
#include "support/bench_common.hpp"

#include <array>
#include <fstream>
#include <memory>
#include <span>

#include "analysis/experiment.hpp"
#include "core/scenarios.hpp"
#include "flow/max_flow.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "perfbench/stats.hpp"

namespace {

using namespace lgg;

constexpr NodeId kNodes = 1024;
constexpr TimeStep kSnapshotEvery = 50;
constexpr TimeStep kSettleSteps = 50;
constexpr TimeStep kBlockSteps = 100;
constexpr int kRounds = 100;
constexpr double kTraceBudgetPct = 2.0;

/// Counts bytes but keeps nothing: measures the full snapshot-emission
/// cost without mixing in disk latency.
class DiscardSink final : public obs::TelemetrySink {
 public:
  void write_line(std::string_view line) override { bytes_ += line.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

/// One observed state of the cost protocol and what it measured.
struct CostRow {
  const char* label;
  obs::SpanTracer* tracer;
  obs::Telemetry* telemetry;
  double overhead_pct = 0.0;
};

/// Runs the cost protocol on `sim`, fills every row's overhead_pct and
/// returns the detached steps/sec (median block).
double measure_overheads(core::Simulator& sim, std::span<CostRow> rows) {
  const auto block_seconds = [&sim](obs::SpanTracer* tracer,
                                    obs::Telemetry* telemetry) {
    sim.set_tracer(tracer);
    sim.set_telemetry(telemetry);
    sim.run(kSettleSteps);
    analysis::Stopwatch wall;
    sim.run(kBlockSteps);
    return wall.seconds();
  };
  std::vector<double> detached;
  std::vector<std::vector<double>> ratios(rows.size());
  std::vector<double> observed(rows.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      observed[i] = block_seconds(rows[i].tracer, rows[i].telemetry);
    }
    detached.push_back(block_seconds(nullptr, nullptr));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ratios[i].push_back(observed[i] / detached.back());
    }
  }
  sim.set_tracer(nullptr);
  sim.set_telemetry(nullptr);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].overhead_pct =
        100.0 * (perfbench::median(std::move(ratios[i])) - 1.0);
  }
  return static_cast<double>(kBlockSteps) /
         perfbench::median(std::move(detached));
}

void print_report() {
  bench::banner("E15: observability cost",
                "What each observer costs a simulator step on a "
                "sparse-source topology, then the google-benchmark section "
                "for solver times and replication scaling.");

  core::Simulator sim(
      core::scenarios::random_unsaturated(
          kNodes, static_cast<EdgeId>(4 * kNodes), 2, 2, 5),
      core::SimulatorOptions{});
  const auto session = [](std::size_t flight_capacity, std::size_t hotspot_k,
                          DiscardSink* sink) {
    obs::TelemetryOptions options;
    options.snapshot_every = kSnapshotEvery;
    options.flight_capacity = flight_capacity;
    options.hotspot_k = hotspot_k;
    auto telemetry = std::make_unique<obs::Telemetry>(options);
    telemetry->set_sink(sink);
    return telemetry;
  };
  DiscardSink armed_sink;
  DiscardSink hotspot_sink;
  const auto unarmed = session(0, 0, nullptr);
  const auto armed = session(256, 0, &armed_sink);
  const auto hotspots = session(0, 8, &hotspot_sink);
  obs::SpanTracer tracer;
  // Decreasing cost: see the protocol note at the top of the file.
  std::array<CostRow, 4> rows = {{
      {"tracer + hotspots (k=8)", &tracer, hotspots.get()},
      {"telemetry armed (JSONL sink + flight 256)", nullptr, armed.get()},
      {"telemetry attached, unarmed", nullptr, unarmed.get()},
      {"tracer attached", &tracer, nullptr},
  }};
  const double detached_sps = measure_overheads(sim, rows);
  const auto& [hotspot_row, armed_row, unarmed_row, tracer_row] = rows;

  std::printf("observer cost (%d rounds; %lld settle + %lld timed steps a "
              "visit; median of block time / same round's detached block):\n",
              kRounds, static_cast<long long>(kSettleSteps),
              static_cast<long long>(kBlockSteps));
  std::printf("  %-42s %.6g steps/sec\n", "detached", detached_sps);
  for (const CostRow& row : rows) {
    std::printf("  %-42s %+.2f%%\n", row.label, row.overhead_pct);
  }
  const double traced_pct = tracer_row.overhead_pct;
  std::printf("BENCH trace_overhead_gate attached=%.2f%% budget=2.00%% %s\n\n",
              traced_pct, traced_pct <= kTraceBudgetPct ? "PASS" : "FAIL");

  std::ofstream out("BENCH_perf_core.json");
  if (!out) return;
  obs::JsonWriter json;
  json.begin_object();
  json.field("experiment", "perf_core");
  json.begin_object("topology");
  json.field("nodes", static_cast<std::int64_t>(kNodes));
  json.field("edges", static_cast<std::int64_t>(4 * kNodes));
  json.field("sources", std::int64_t{2});
  json.field("sinks", std::int64_t{2});
  json.end_object();
  json.begin_object("protocol");
  json.field("rounds", static_cast<std::int64_t>(kRounds));
  json.field("settle_steps", static_cast<std::int64_t>(kSettleSteps));
  json.field("block_steps", static_cast<std::int64_t>(kBlockSteps));
  json.field("snapshot_every", static_cast<std::int64_t>(kSnapshotEvery));
  json.end_object();
  json.field("detached_steps_per_second", detached_sps);
  json.begin_object("telemetry_overhead");
  json.field("unarmed_overhead_pct", unarmed_row.overhead_pct);
  json.field("armed_overhead_pct", armed_row.overhead_pct);
  json.field("armed_bytes_emitted",
             static_cast<std::uint64_t>(armed_sink.bytes()));
  json.end_object();
  json.begin_object("trace_overhead");
  json.field("attached_overhead_pct", traced_pct);
  json.field("attached_hotspots_overhead_pct", hotspot_row.overhead_pct);
  json.field("budget_pct", kTraceBudgetPct);
  json.end_object();
  json.end_object();
  out << json.str() << '\n';
  std::printf("observer cost rows written to BENCH_perf_core.json\n");
}

void BM_MaxFlowSolvers(benchmark::State& state) {
  const auto algo = static_cast<flow::FlowAlgorithm>(state.range(0));
  const core::SdNetwork net = core::scenarios::random_unsaturated(
      64, 256, 3, 3, 7);
  const auto sources = net.source_rates();
  const auto sinks = net.sink_rates();
  for (auto _ : state) {
    flow::ExtendedGraph ext =
        flow::build_extended_graph(net.topology(), sources, sinks);
    benchmark::DoNotOptimize(
        flow::solve_max_flow(ext.net, ext.s_star, ext.d_star, algo));
  }
  state.SetLabel(std::string(flow::algorithm_name(algo)));
}
BENCHMARK(BM_MaxFlowSolvers)->DenseRange(0, 3);

void BM_ParallelReplication(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  analysis::ThreadPool pool(threads);
  const core::SdNetwork net = core::scenarios::fat_path(4, 3, 1, 3);
  for (auto _ : state) {
    const auto results = analysis::replicate<double>(
        pool, 16, 99, [&net](std::uint64_t seed, std::size_t) {
          core::SimulatorOptions options;
          options.seed = seed;
          core::Simulator sim(net, options);
          sim.run(500);
          return sim.network_state();
        });
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
// Wall clock: the pool threads do the work, so main-thread CPU time would
// overstate throughput and stretch the run to thousands of iterations.
BENCHMARK(BM_ParallelReplication)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

LGG_BENCH_MAIN()
