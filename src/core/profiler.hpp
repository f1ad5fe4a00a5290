// Per-phase observability for the simulation hot path.
//
// A StepProfiler attached to a Simulator (set_profiler) accumulates, for
// each of the eight pipeline phases of one synchronous step, the wall time
// spent and a phase-specific work counter (packets injected, transmissions
// proposed, ...).  The simulator pays two steady_clock reads per phase when
// a profiler is attached and nothing at all otherwise, so production runs
// stay unperturbed while `lgg_sim --profile` prints a phase breakdown and
// perfbench reads the per-phase totals for its traced rows.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace lgg::core {

/// The eight phases of Simulator::step(), in execution order.
enum class StepPhase : std::uint8_t {
  kDynamics = 0,    ///< topology dynamics mutate the edge mask
  kInjection,       ///< sources add packets
  kDeclaration,     ///< nodes declare queue lengths
  kSelection,       ///< the protocol proposes transmissions
  kScheduling,      ///< interference scheduling
  kConflict,        ///< link-conflict resolution
  kLossApply,       ///< losses decided + transmissions applied
  kExtraction,      ///< sinks remove packets
};

inline constexpr std::size_t kStepPhaseCount = 8;

[[nodiscard]] std::string_view to_string(StepPhase phase);

/// Accumulated cost of one phase across all profiled steps.  Serial phases
/// have cpu_nanos == nanos; a shard-parallel phase reports the wall time of
/// its slowest shard (phases do not overlap, so the per-phase walls still
/// sum to the step wall) and the summed CPU time across shards (which can
/// legitimately exceed the wall — that excess is the realized parallelism).
struct PhaseTotals {
  std::uint64_t nanos = 0;      ///< wall time, nanoseconds
  std::uint64_t cpu_nanos = 0;  ///< cpu time summed over shards
  std::uint64_t items = 0;      ///< phase-specific work counter
};

class StepProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Adds one phase observation (called by the simulator once per phase
  /// per step while attached).  `wall_nanos` is what the step waited;
  /// `cpu_nanos` what the cores burned: the wall time again for an inline
  /// phase, the summed shard busy time for a fanned-out one.  Summing
  /// per-shard walls into the wall column would count the step wall K-fold.
  void record(StepPhase phase, std::uint64_t wall_nanos,
              std::uint64_t cpu_nanos, std::uint64_t items) {
    auto& totals = phases_[static_cast<std::size_t>(phase)];
    totals.nanos += wall_nanos;
    totals.cpu_nanos += cpu_nanos;
    totals.items += items;
  }

  /// Marks the end of one profiled step.
  void finish_step() { ++steps_; }

  void reset();

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] const PhaseTotals& phase(StepPhase p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  /// Σ over phases — the profiled portion of the step wall time.
  [[nodiscard]] std::uint64_t total_nanos() const;
  /// Σ over phases of shard CPU time (== total_nanos() for serial runs).
  [[nodiscard]] std::uint64_t total_cpu_nanos() const;
  /// Throughput over the profiled portion (0 before the first step).
  [[nodiscard]] double steps_per_second() const;

  /// Aligned phase-breakdown table (phase, time, share, ns/step, items).
  [[nodiscard]] std::string table() const;

 private:
  std::array<PhaseTotals, kStepPhaseCount> phases_{};
  std::uint64_t steps_ = 0;
};

}  // namespace lgg::core
