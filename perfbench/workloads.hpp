// The benchmark's four workloads, built from the run seed alone.
//
// An Instance is one assembled simulator of a workload: the network, the
// components, and (for soak_observed) the telemetry session, governor,
// churn schedule and checkpoint chain riding on it.  The plain form uses
// the stock components exactly as a user would; the traced form wraps the
// same components in the forwarding wrappers of layers.hpp and attaches a
// StepProfiler.  Both forms follow the same trajectory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "control/governor.hpp"
#include "core/ckpt_chain.hpp"
#include "core/profiler.hpp"
#include "core/simulator.hpp"
#include "layers.hpp"

namespace perfbench {

/// soak_observed's JSONL snapshot cadence: 2% of steps, so snapshot steps
/// fill the tail beyond p99 instead of straddling it.
inline constexpr lgg::TimeStep kSnapshotEvery = 50;

enum class WorkloadId : std::uint8_t {
  kSparse1024,
  kGrid256,
  kGrid256K4,
  kSoakObserved,
};

/// kSmall shrinks every workload to a few hundred nodes for the self-test;
/// the structure (components, engine, cadences) is unchanged.
enum class Scale : std::uint8_t { kFull, kSmall };

[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(WorkloadId id);

/// How a run drives one workload.
struct WorkloadPlan {
  WorkloadId id = WorkloadId::kSparse1024;
  Scale scale = Scale::kFull;
  int instances = 1;              ///< independent simulators per run
  lgg::TimeStep warmup = 0;       ///< untimed steps before the first block
  lgg::TimeStep block = 1;        ///< timed steps per block
  std::size_t min_samples = 0;    ///< step samples the timings rest on
  lgg::TimeStep append_every = 0; ///< checkpoint-chain cadence (0: none)
  lgg::TimeStep max_steps = 0;    ///< per-instance step cap (churn horizon)
  std::uint32_t shards = 0;       ///< shard-engine K (0: serial engine)
};

[[nodiscard]] WorkloadPlan plan_for(WorkloadId id, Scale scale);

/// Direct timings of setup calls, filled by traced instances only.
struct SetupLayers {
  double build_ms = 0.0;        ///< network generator (with its retries)
  double feasibility_ms = 0.0;  ///< one core::analyze call (0: not in setup)
  double partition_ms = 0.0;    ///< graph::partition_edge_cut (sharded only)
  std::uint64_t cut_edges = 0;
  double governor_ms = 0.0;     ///< AdmissionGovernor constructor
};

struct InstanceOptions {
  bool traced = false;
  /// Run the serial engine even when the plan shards (the reference the
  /// shard engine must match bit for bit).
  bool force_serial = false;
};

class Instance {
 public:
  /// Assembles instance `index` of the workload for run seed `seed`.
  /// `dir` receives the soak's JSONL stream and checkpoint chain; it must
  /// be fresh, so no run inherits another's chain.
  Instance(const WorkloadPlan& plan, std::uint64_t seed, int index,
           InstanceOptions options, const std::filesystem::path& dir);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  Instance(Instance&&) = delete;
  Instance& operator=(Instance&&) = delete;

  /// What one closed-loop step did.
  struct Step {
    lgg::core::StepStats stats;
    std::uint64_t append_ns = 0;  ///< checkpoint-chain append, when due
  };
  /// One step, then the chain append when the cadence is due.
  Step step();

  [[nodiscard]] lgg::core::Simulator& sim() { return *sim_; }
  [[nodiscard]] const lgg::core::Simulator& sim() const { return *sim_; }
  [[nodiscard]] const WorkloadPlan& plan() const { return plan_; }
  [[nodiscard]] LayerStats* layers() { return layers_.get(); }
  [[nodiscard]] lgg::core::StepProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const lgg::control::AdmissionGovernor* governor() const {
    return governor_.get();
  }
  [[nodiscard]] const SetupLayers& setup_layers() const { return setup_; }
  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }
  [[nodiscard]] lgg::core::CheckpointChain* chain() { return chain_.get(); }

  /// Soak only: flushes the JSONL stream and checks its line count against
  /// the snapshot cadence (header + snapshot + hotspots line per snapshot).
  [[nodiscard]] bool jsonl_matches_cadence();

 private:
  WorkloadPlan plan_;
  std::filesystem::path dir_;
  SetupLayers setup_;
  // Declared before sim_ so they outlive it: the simulator holds raw
  // pointers to all of them.
  std::unique_ptr<LayerStats> layers_;
  std::unique_ptr<lgg::core::StepProfiler> profiler_;
  std::unique_ptr<std::ofstream> jsonl_;
  std::unique_ptr<lgg::obs::OstreamJsonlSink> sink_;
  std::unique_ptr<TracedSink> traced_sink_;
  std::unique_ptr<lgg::obs::Telemetry> telemetry_;
  std::unique_ptr<lgg::control::AdmissionGovernor> governor_;
  std::unique_ptr<TracedAdmission> traced_admission_;
  std::unique_ptr<lgg::core::CheckpointChain> chain_;
  std::unique_ptr<lgg::core::Simulator> sim_;
};

/// Hash of the trajectory: final queues, P_t, the step counter and every
/// CumulativeStats field.
[[nodiscard]] std::uint64_t fingerprint(const lgg::core::Simulator& sim);

/// Soak only: the newest chain generation of `source` restores into a
/// freshly assembled instance (built in `scratch`) and re-serializes to
/// the generation file's bytes.
[[nodiscard]] bool chain_round_trips(Instance& source, std::uint64_t seed,
                                     int index,
                                     const std::filesystem::path& scratch);

/// Bytes the step's hot arrays occupy, computed from their sizes (nodes,
/// incidence, edges, mask) — compared against the host's L2 size.
[[nodiscard]] std::uint64_t working_set_bytes(const lgg::core::SdNetwork& net);

}  // namespace perfbench
