// StepProfiler aggregation semantics: serial phases account wall == CPU;
// shard-parallel phases account max-over-shards wall and sum-over-shards
// CPU.  The aggregation bug this guards against is summing per-shard wall
// times into the wall column, which would inflate a step's apparent cost
// K-fold under K shards.
#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "core/simulator.hpp"

namespace lgg::core {
namespace {

constexpr std::array<StepPhase, kStepPhaseCount> kAllPhases = {
    StepPhase::kDynamics,   StepPhase::kInjection, StepPhase::kDeclaration,
    StepPhase::kSelection,  StepPhase::kScheduling, StepPhase::kConflict,
    StepPhase::kLossApply,  StepPhase::kExtraction,
};

TEST(StepProfiler, SerialRecordCountsWallAsCpu) {
  // A serial phase passes its wall time as its CPU time too; repeated
  // observations of the same phase accumulate.
  StepProfiler prof;
  prof.record(StepPhase::kSelection, 1000, 1000, 7);
  prof.record(StepPhase::kSelection, 500, 500, 3);
  const PhaseTotals& t = prof.phase(StepPhase::kSelection);
  EXPECT_EQ(t.nanos, 1500u);
  EXPECT_EQ(t.cpu_nanos, 1500u);
  EXPECT_EQ(t.items, 10u);
}

TEST(StepProfiler, ParallelRecordSplitsWallFromCpu) {
  // A fanned-out phase: four shards, slowest 800 ns, total shard busy time
  // 2000 ns.  The step waited 800 ns (wall), the cores burned 2000 ns
  // (CPU).  A second, serial observation of the same phase accumulates.
  StepProfiler prof;
  prof.record(StepPhase::kLossApply, 800, 2000, 42);
  prof.record(StepPhase::kLossApply, 500, 500, 3);
  const PhaseTotals& t = prof.phase(StepPhase::kLossApply);
  EXPECT_EQ(t.nanos, 1300u);
  EXPECT_EQ(t.cpu_nanos, 2500u);
  EXPECT_EQ(t.items, 45u);
  EXPECT_EQ(prof.total_nanos(), 1300u);
  EXPECT_EQ(prof.total_cpu_nanos(), 2500u);
}

TEST(StepProfiler, SerialSimulationPhasesSumSanely) {
  // Attached to a real serial run: every phase got an observation per
  // step, wall equals CPU phase by phase, and the eight phase totals sum
  // to total_nanos (no phase double-counted, none missing).
  StepProfiler prof;
  Simulator sim(scenarios::grid_single(4, 4));
  sim.set_profiler(&prof);
  sim.run(50);

  EXPECT_EQ(prof.steps(), 50u);
  std::uint64_t wall_sum = 0;
  std::uint64_t cpu_sum = 0;
  for (const StepPhase p : kAllPhases) {
    const PhaseTotals& t = prof.phase(p);
    EXPECT_EQ(t.nanos, t.cpu_nanos) << to_string(p);
    wall_sum += t.nanos;
    cpu_sum += t.cpu_nanos;
  }
  EXPECT_EQ(wall_sum, prof.total_nanos());
  EXPECT_EQ(cpu_sum, prof.total_cpu_nanos());
  EXPECT_GT(wall_sum, 0u);
}

TEST(StepProfiler, ShardedRunKeepsWallBelowCpu) {
  // Under the shard engine the parallel phases may burn more CPU than
  // wall, never the reverse; the work counters must be identical to the
  // serial engine's (same trajectory).
  StepProfiler serial_prof;
  {
    Simulator sim(scenarios::grid_single(4, 4));
    sim.set_profiler(&serial_prof);
    sim.run(50);
  }
  StepProfiler sharded_prof;
  {
    Simulator sim(scenarios::grid_single(4, 4));
    sim.enable_sharding(4, 2);
    sim.set_profiler(&sharded_prof);
    sim.run(50);
  }
  EXPECT_EQ(sharded_prof.steps(), 50u);
  for (const StepPhase p : kAllPhases) {
    const PhaseTotals& t = sharded_prof.phase(p);
    // Each shard's busy interval lies inside the phase's fan-out-to-join
    // window, so summed CPU can never exceed shard_count × wall.  (Wall
    // can exceed CPU — pool scheduling overhead is wall, not shard work.)
    EXPECT_LE(t.cpu_nanos, t.nanos * 4) << to_string(p);
    EXPECT_EQ(t.items, serial_prof.phase(p).items) << to_string(p);
  }
}

TEST(StepProfiler, ResetClearsEverything) {
  StepProfiler prof;
  prof.record(StepPhase::kDynamics, 5, 5, 1);
  prof.record(StepPhase::kInjection, 10, 30, 1);
  prof.finish_step();
  prof.reset();
  EXPECT_EQ(prof.steps(), 0u);
  EXPECT_EQ(prof.total_nanos(), 0u);
  EXPECT_EQ(prof.total_cpu_nanos(), 0u);
}

}  // namespace
}  // namespace lgg::core
