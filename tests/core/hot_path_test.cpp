// Equivalence nets for the hot-path rework: the flat epoch-stamped
// link-conflict resolver against the original map-based reference, and the
// incrementally maintained Σq / Σq² counters against a full scan, both on
// fuzzed multigraph configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "graph/generators.hpp"

namespace lgg::core {
namespace {

// The pre-rework resolver, verbatim semantics: first kept use of an edge
// wins unless a later opposite-direction use realizes a larger true queue
// drop (ties: lower from-id).
std::size_t reference_resolve(std::span<const Transmission> txs,
                              std::span<const PacketCount> queue,
                              std::vector<char>& keep) {
  std::map<EdgeId, std::size_t> first_use;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!keep[i]) continue;
    const auto [it, inserted] = first_use.emplace(txs[i].edge, i);
    if (inserted) continue;
    const std::size_t j = it->second;
    if (txs[j].from == txs[i].from) continue;
    const auto drop = [&](const Transmission& tx) {
      return queue[static_cast<std::size_t>(tx.from)] -
             queue[static_cast<std::size_t>(tx.to)];
    };
    std::size_t loser;
    if (drop(txs[i]) > drop(txs[j]) ||
        (drop(txs[i]) == drop(txs[j]) && txs[i].from < txs[j].from)) {
      loser = j;
      it->second = i;
    } else {
      loser = i;
    }
    keep[loser] = 0;
    ++dropped;
  }
  return dropped;
}

TEST(ResolveLinkConflicts, MatchesMapReferenceOnFuzzedMultigraphs) {
  Rng rng(0xfeedULL);
  LinkConflictScratch scratch;  // reused across cases: epochs must isolate
  for (int round = 0; round < 200; ++round) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 12));
    const graph::Multigraph g = graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n - 1, 5 * n)),
        0x9000ULL + static_cast<std::uint64_t>(round));
    std::vector<PacketCount> queue(static_cast<std::size_t>(n));
    for (auto& q : queue) q = rng.uniform_int(0, 20);

    // Random transmissions: many duplicate edges, both directions, with a
    // random pre-kill pattern standing in for the interference scheduler.
    const std::int64_t ntx = rng.uniform_int(0, 4 * g.edge_count());
    std::vector<Transmission> txs;
    std::vector<char> keep;
    for (std::int64_t k = 0; k < ntx; ++k) {
      const auto e = static_cast<EdgeId>(
          rng.uniform_int(0, g.edge_count() - 1));
      const auto [u, v] = g.endpoints(e);
      const bool forward = rng.bernoulli(0.5);
      txs.push_back({e, forward ? u : v, forward ? v : u});
      keep.push_back(rng.bernoulli(0.8) ? 1 : 0);
    }

    std::vector<char> keep_fast = keep;
    std::vector<char> keep_ref = keep;
    const std::size_t dropped_fast =
        resolve_link_conflicts(txs, queue, keep_fast, scratch);
    const std::size_t dropped_ref = reference_resolve(txs, queue, keep_ref);
    EXPECT_EQ(keep_fast, keep_ref) << "round " << round;
    EXPECT_EQ(dropped_fast, dropped_ref) << "round " << round;
  }
}

TEST(ResolveLinkConflicts, SurvivesEpochWraparound) {
  // Force the epoch counter to the wraparound edge and check the scratch
  // still isolates calls.
  const graph::Multigraph g = graph::make_fat_path(2, 1);
  const std::vector<PacketCount> queue = {5, 0};
  const std::vector<Transmission> txs = {{0, 0, 1}, {0, 1, 0}};
  LinkConflictScratch scratch;
  scratch.current = std::numeric_limits<std::uint32_t>::max() - 1;
  for (int i = 0; i < 4; ++i) {  // crosses the wrap twice
    std::vector<char> keep = {1, 1};
    EXPECT_EQ(resolve_link_conflicts(txs, queue, keep, scratch), 1u);
    EXPECT_EQ(keep, (std::vector<char>{1, 0}));  // 0→1 drops 5, wins
  }
}

// Full-scan reference for the incremental counters.
void expect_counters_match_scan(const Simulator& sim) {
  PacketCount total = 0;
  double state = 0.0;
  for (const PacketCount q : sim.queues()) {
    total += q;
    state += static_cast<double>(q) * static_cast<double>(q);
  }
  EXPECT_EQ(sim.total_packets(), total);
  EXPECT_DOUBLE_EQ(sim.network_state(), state);
}

TEST(IncrementalCounters, MatchFullScanOnFuzzedConfigurations) {
  for (std::uint64_t master = 0; master < 12; ++master) {
    Rng rng(master);
    const NodeId n = static_cast<NodeId>(rng.uniform_int(3, 16));
    graph::Multigraph g = graph::make_random_multigraph(
        n, static_cast<EdgeId>(rng.uniform_int(n - 1, 4 * n)),
        master * 31 + 7);
    SdNetwork net(std::move(g));
    net.set_source(0, rng.uniform_int(1, 3));
    net.set_sink(n - 1, rng.uniform_int(1, 3));
    if (rng.bernoulli(0.5)) {
      net.set_generalized(n / 2, 1, 1, rng.uniform_int(0, 5));
    }

    SimulatorOptions options;
    options.seed = derive_seed(master, 2);
    options.declaration_policy =
        static_cast<DeclarationPolicy>(rng.uniform_int(0, 3));
    options.extraction_policy =
        static_cast<ExtractionPolicy>(rng.uniform_int(0, 2));
    Simulator sim(net, options);
    if (rng.bernoulli(0.4)) {
      sim.set_loss(std::make_unique<BernoulliLoss>(0.2));
    }
    if (rng.bernoulli(0.4)) {
      sim.set_dynamics(std::make_unique<RandomChurn>(0.1, 0.3));
    }
    sim.set_initial_queue(static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                          rng.uniform_int(0, 40));
    expect_counters_match_scan(sim);
    for (int chunk = 0; chunk < 5; ++chunk) {
      sim.run(40);
      expect_counters_match_scan(sim);
      EXPECT_TRUE(sim.conserves_packets());
    }
  }
}

TEST(IncrementalCounters, TrackSeededInitialQueues) {
  const SdNetwork net = scenarios::single_path(4, 1, 1);
  Simulator sim(net);
  sim.set_initial_queue(1, 7);
  sim.set_initial_queue(2, 3);
  sim.set_initial_queue(1, 2);  // overwrite must not double-count
  EXPECT_EQ(sim.total_packets(), 5);
  EXPECT_DOUBLE_EQ(sim.network_state(), 4.0 + 9.0);
  expect_counters_match_scan(sim);
}

TEST(StepProfiler, AccumulatesPhaseTimesAndCounters) {
  const SdNetwork net = scenarios::fat_path(4, 3, 1, 3);
  Simulator sim(net);
  StepProfiler profiler;
  sim.set_profiler(&profiler);
  sim.run(50);
  EXPECT_EQ(profiler.steps(), 50u);
  EXPECT_GT(profiler.total_nanos(), 0u);
  EXPECT_GT(profiler.steps_per_second(), 0.0);
  // The phase work counters mirror the cumulative step stats.
  const CumulativeStats& totals = sim.cumulative();
  EXPECT_EQ(profiler.phase(StepPhase::kInjection).items,
            static_cast<std::uint64_t>(totals.injected));
  EXPECT_EQ(profiler.phase(StepPhase::kSelection).items,
            static_cast<std::uint64_t>(totals.proposed));
  EXPECT_EQ(profiler.phase(StepPhase::kLossApply).items,
            static_cast<std::uint64_t>(totals.sent));
  EXPECT_EQ(profiler.phase(StepPhase::kExtraction).items,
            static_cast<std::uint64_t>(totals.extracted));
  const std::string table = profiler.table();
  EXPECT_NE(table.find("selection"), std::string::npos);
  EXPECT_NE(table.find("steps/sec"), std::string::npos);
  profiler.reset();
  EXPECT_EQ(profiler.steps(), 0u);
  EXPECT_EQ(profiler.total_nanos(), 0u);
}

TEST(StepProfiler, DetachingStopsAccumulation) {
  const SdNetwork net = scenarios::single_path(3, 1, 1);
  Simulator sim(net);
  StepProfiler profiler;
  sim.set_profiler(&profiler);
  sim.run(5);
  sim.set_profiler(nullptr);
  sim.run(5);
  EXPECT_EQ(profiler.steps(), 5u);
}

TEST(RoleIndex, TracksMutationsInAscendingOrder) {
  graph::Multigraph g = graph::make_path(5);
  SdNetwork net(std::move(g));
  net.set_sink(4, 2);
  net.set_source(0, 1);
  net.set_generalized(2, 1, 1, 3);
  EXPECT_EQ(net.sources(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(net.sinks(), (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(net.retention_nodes(), (std::vector<NodeId>{2}));
  net.clear_role(2);
  EXPECT_EQ(net.sources(), (std::vector<NodeId>{0}));
  EXPECT_EQ(net.sinks(), (std::vector<NodeId>{4}));
  EXPECT_TRUE(net.retention_nodes().empty());
  net.set_sink(0, 1);  // role change: source -> sink
  EXPECT_TRUE(net.sources().empty());
  EXPECT_EQ(net.sinks(), (std::vector<NodeId>{0, 4}));
}

}  // namespace
}  // namespace lgg::core
