// Telemetry session: the bundle a Simulator drives when observability is
// switched on.
//
// One Telemetry object owns the metric registry, the per-node drift
// attributor, an optional flight recorder, and an optional JSONL sink,
// and is attached to a simulator with Simulator::set_telemetry (not
// owned, like the profiler).  Cost discipline:
//
//   * no Telemetry attached           — the simulator pays nothing;
//   * attached but not armed()        — one pointer test per step: with
//     neither a sink nor a flight recorder there is nothing to feed, so
//     the hot path stays byte-for-byte the unobserved one (bench_perf_core's
//     unarmed row: median +0.28% over 20 runs on a 4-vCPU host, inside
//     the −0.52…+1.22% A/A floor at its position in 16 of them);
//   * armed                           — drift attribution per queue
//     mutation, counter/gauge updates per step, and a JSONL snapshot of
//     every registered metric each snapshot_every steps.
//
// Snapshots carry the per-node drift decomposition of ΔP_t and, when
// set_lemma1_bounds was called, live "bound-slack" gauges:
//
//   bound_slack_growth = 5nΔ²           − ΔP_t   (Property 1 headroom)
//   bound_slack_state  = nY² + 5nΔ²     − P_t    (Lemma 1 headroom)
//
// On an unsaturated network both stay non-negative for LGG — watching
// them approach zero is watching the proof's constants being consumed.
//
// The sequence number, metric values, cumulative drift, and flight ring
// are checkpointed with the simulator (checkpoint format v2), so a
// resumed run emits byte-identical telemetry to an uninterrupted one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/drift.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hotspots.hpp"
#include "obs/registry.hpp"

namespace lgg::obs {

inline constexpr int kTelemetrySchemaVersion = 1;

/// Destination for JSONL lines (one complete JSON document per call, no
/// trailing newline — the sink appends it).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void write_line(std::string_view line) = 0;
  virtual void flush() {}
};

/// Writes lines to a std::ostream (file, stringstream, ...).
class OstreamJsonlSink final : public TelemetrySink {
 public:
  explicit OstreamJsonlSink(std::ostream& os) : os_(&os) {}
  void write_line(std::string_view line) override;
  void flush() override;

 private:
  std::ostream* os_;
};

struct TelemetryOptions {
  /// Steps between JSONL snapshots (a snapshot fires after steps
  /// every-1, 2*every-1, ... so a run of S steps emits floor(S/every)).
  TimeStep snapshot_every = 100;
  /// Flight-recorder ring capacity; 0 disables the recorder.
  std::size_t flight_capacity = 0;
  /// Top-K size of the hotspot sketches (obs/hotspots.hpp); 0 disables
  /// hotspot analytics.  When enabled, every snapshot is followed by a
  /// {"type":"hotspots"} line and the "sim.queue_occupancy" histogram is
  /// registered — enabling it therefore changes the stream's bytes, but
  /// the bytes stay identical across shard/thread counts and resumes.
  std::size_t hotspot_k = 0;
};

/// Everything the simulator reports at the end of one step.  max_queue
/// is only filled (>= 0) when the telemetry layer asked for it via
/// snapshot_due — keeping the O(n) scan off non-snapshot steps.
struct StepSample {
  TimeStep t = 0;
  double potential = 0.0;  ///< P_{t+1}, after the step completed
  std::int64_t total_packets = 0;
  std::int64_t max_queue = -1;
  std::int64_t injected = 0;
  std::int64_t proposed = 0;
  std::int64_t suppressed = 0;
  std::int64_t conflicted = 0;
  std::int64_t sent = 0;
  std::int64_t lost = 0;
  std::int64_t delivered = 0;
  std::int64_t extracted = 0;
  std::int64_t crash_wiped = 0;
  std::int64_t shed = 0;  ///< offered but refused by admission control
  /// Post-step queue view (set by the simulator every step; read only
  /// when hotspot analytics are enabled).  Valid during end_step only.
  std::span<const PacketCount> queues;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {});

  [[nodiscard]] const TelemetryOptions& options() const { return options_; }
  [[nodiscard]] MetricRegistry& registry() { return registry_; }
  [[nodiscard]] DriftAttributor& drift() { return drift_; }
  [[nodiscard]] const DriftAttributor& drift() const { return drift_; }
  /// nullptr when flight_capacity is 0.
  [[nodiscard]] FlightRecorder* flight() { return flight_.get(); }
  [[nodiscard]] const FlightRecorder* flight() const { return flight_.get(); }
  /// nullptr when hotspot_k is 0.
  [[nodiscard]] HotspotTracker* hotspots() { return hotspots_.get(); }
  [[nodiscard]] const HotspotTracker* hotspots() const {
    return hotspots_.get();
  }

  /// Attaches/detaches the snapshot sink (not owned).
  void set_sink(TelemetrySink* sink) { sink_ = sink; }
  [[nodiscard]] bool has_sink() const { return sink_ != nullptr; }
  /// True when the simulator should feed this session at all.
  [[nodiscard]] bool armed() const {
    return sink_ != nullptr || flight_ != nullptr || hotspots_ != nullptr;
  }

  /// Installs the Lemma 1 constants (core::unsaturated_bounds): `growth`
  /// is 5nΔ², `state` is nY² + 5nΔ².  Enables the bound-slack gauges.
  void set_lemma1_bounds(double growth, double state);
  [[nodiscard]] bool has_bounds() const { return bounds_.has_value(); }

  /// Called by Simulator::set_telemetry with the network size.
  void bind(NodeId node_count);

  /// Would a step ending at time `t` emit a snapshot?  The simulator
  /// uses this to compute max_queue only when it will be published.
  [[nodiscard]] bool snapshot_due(TimeStep t) const {
    return sink_ != nullptr && (t + 1) % options_.snapshot_every == 0;
  }

  /// Step hooks (simulator-driven, only while armed).
  void begin_step() { drift_.begin_step(); }
  void end_step(const StepSample& sample);

  /// Forwards to the flight recorder when one is configured.
  void record_event(const FlightEvent& event) {
    if (flight_ != nullptr) flight_->record(event);
  }
  /// Records a checkpoint-write event (RunSupervisor, lgg_sim).
  void record_checkpoint(TimeStep t);

  /// Dumps the flight ring as JSONL event lines; returns lines written.
  std::size_t dump_flight(std::ostream& os) const;

  /// Snapshots emitted so far (the "seq" field of the next one).
  [[nodiscard]] std::uint64_t sequence() const { return sequence_; }

  /// Checkpoint support: sequence number, metric values, cumulative
  /// drift, and the flight ring.  load_state requires an identically
  /// configured session (same metrics registered, same flight capacity)
  /// and throws std::runtime_error otherwise.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  void emit_snapshot(const StepSample& sample);

  TelemetryOptions options_;
  MetricRegistry registry_;
  DriftAttributor drift_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<HotspotTracker> hotspots_;
  std::vector<NodeId> touched_scratch_;  // sorted copy, reused per step
  TelemetrySink* sink_ = nullptr;
  NodeId node_count_ = 0;
  std::uint64_t sequence_ = 0;

  struct Lemma1Bounds {
    double growth = 0.0;
    double state = 0.0;
  };
  std::optional<Lemma1Bounds> bounds_;

  // Standard simulator metrics, registered up front so they lead every
  // snapshot in a stable order.
  Counter* steps_;
  Counter* injected_;
  Counter* proposed_;
  Counter* suppressed_;
  Counter* conflicted_;
  Counter* sent_;
  Counter* lost_;
  Counter* delivered_;
  Counter* extracted_;
  Counter* crash_wiped_;
  Counter* shed_;
  Counter* checkpoints_;
  Gauge* potential_;
  Gauge* total_packets_;
  Gauge* max_queue_;
  Gauge* slack_growth_;
  Gauge* slack_state_;
  Histogram* step_dp_;
};

}  // namespace lgg::obs
