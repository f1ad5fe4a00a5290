// Shard dispatch and phase timing for Simulator::step.
//
// Simulator::step (core/simulator.hpp) is the only step body.  Four of its
// eight phases are node-local (injection, selection, loss-apply,
// extraction): a node's mutations read shared read-only state and its own
// queue only.  Their bodies are written once, against a *part* of the
// network, and the ShardEngine decides how many parts there are:
//
//   * K = 1 (the default): one Inline part, the whole network, run on the
//     calling thread.  Mutations go straight through
//     Simulator::apply_queue_delta into Σq, Σq² and the drift attributor.
//     Nothing is built: no partition, no pool, no per-node arrays.
//   * K > 1 (enable_sharding): one Shard part per contiguous node-id
//     band (graph::band_offsets), fanned out over a thread pool.
//     Mutations go to the shard's exact-integer scratch, folded into the
//     simulator in shard order when the phase joins.
//
// Loss-apply and extraction always run through the engine.  Injection
// fans out only while call order is unobservable (no admission
// controller, a parallel-safe dense arrival process) and selection only
// for protocols with local_selection(); otherwise they run inline at
// every K.  The other four phases read or mutate global state and always
// run inline.
//
// Both part types compute the same thing because every mutation's drift
// term δ(2q+δ) is node-local and sums exactly — the local-to-global
// quadratic-Lyapunov decomposition obs/drift implements.  Bitwise
// determinism across every (shard, thread) count rests on three
// invariants:
//
//   * every stochastic draw is addressed by (seed, step, phase, node)
//     (common/rng.hpp), so a draw's value cannot depend on which shard or
//     thread performs it;
//   * the global reductions (Σq, Σq², drift attribution, StepStats) use
//     exact integer accumulators folded in fixed shard order — integer
//     sums commute, so the fold equals the inline accumulation;
//   * each node's queue is mutated only by its owner shard, in ascending
//     transmission order — exactly its inline mutation order, which pins
//     the value-dependent drift contributions δ(2q+δ).
//
// Bands make the bookkeeping around the shards arithmetic: a shard owns v
// iff lo <= v < hi, its drift table is keyed by v - lo, its sources and
// sinks are sub-spans of the network's ascending role lists (current after
// any churn or restore, with nothing to repair), and its selection output
// is an ascending-sender slice, so joining the slices in shard order is
// the inline proposal list.
//
// The boundary exchange is implicit in the apply phase: the transmission
// list, keep flags, and loss verdicts are shared read-only state, and
// every shard scans the full list applying just the mutations of nodes it
// owns.  A cross-boundary delivery is therefore "exchanged" by the
// receiver's shard reading the sender's transmission — no queues, no
// message passing, no ordering ambiguity.  The full scan keeps the third
// invariant even when a baseline protocol selects serially, in its own
// sender order.  (A local-then-inbox scheme would reorder a node's
// receives after its sends and silently change the drift attribution.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/thread_pool.hpp"
#include "core/simulator.hpp"

namespace lgg::core {

/// Phase timing of one step.  While a profiler or tracer is attached each
/// phase costs two clock reads, one profiler row and one lane-0 span;
/// detached, nothing.
class PhaseClock {
 public:
  using Clock = StepProfiler::Clock;

  PhaseClock(StepProfiler* profiler, obs::SpanTracer* tracer, TimeStep t)
      : prof_(profiler), trc_(tracer), t_(t) {
    if (on()) mark_ = Clock::now();
  }

  [[nodiscard]] bool on() const {
    return prof_ != nullptr || trc_ != nullptr;
  }
  [[nodiscard]] obs::SpanTracer* tracer() const { return trc_; }

  /// Closes the phase begun at the previous lap.  Its CPU time is the
  /// summed shard busy time when it fanned out, else its wall time.
  void lap(StepPhase phase, std::uint64_t items);

  /// Called by a fan-out: the open phase burned `cpu_nanos` across shards.
  void add_shard_time(std::uint64_t cpu_nanos) {
    shard_nanos_ = shard_nanos_.value_or(0) + cpu_nanos;
  }

  /// Records [start, end) as a span of `phase` on tracer lane `lane`.
  /// Safe to call concurrently for distinct lanes.
  void span(std::size_t lane, StepPhase phase, std::uint16_t shard,
            Clock::time_point start, Clock::time_point end) const;

 private:
  StepProfiler* prof_;
  obs::SpanTracer* trc_;
  TimeStep t_;
  Clock::time_point mark_{};
  std::optional<std::uint64_t> shard_nanos_;  // set while a phase fanned out
};

class ShardEngine {
 public:
  /// K = `shard_count` node-id bands of `net` on a pool of `threads`
  /// workers (0 picks min(K, hardware concurrency)).  K = 1 builds
  /// nothing: every phase runs inline.  Shards read `net`'s role lists
  /// at every phase, so `net` must outlive the engine.
  ShardEngine(const SdNetwork& net, std::uint32_t shard_count,
              std::size_t threads);
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const {
    return fans_out() ? static_cast<std::uint32_t>(shards_.size()) : 1;
  }
  [[nodiscard]] bool fans_out() const { return pool_ != nullptr; }

  /// The K = 1 part: the whole network, mutating the simulator's ledger.
  /// Parts take the simulator as an argument of apply() rather than
  /// holding it, so a phase body addresses it through one pointer.
  struct Inline {
    const SdNetwork& net;
    StepStats& stats;

    [[nodiscard]] std::span<const NodeId> sources() const {
      return net.sources();
    }
    [[nodiscard]] std::span<const NodeId> sinks() const {
      return net.sinks();
    }
    [[nodiscard]] static constexpr bool owns(NodeId) { return true; }
    static void apply(Simulator& sim, NodeId v, PacketCount delta,
                      obs::DriftCause cause) {
      sim.apply_queue_delta(v, delta, cause);
    }
  };

  /// Runs `body(part)` once on an Inline part (K = 1, or `may_fan_out`
  /// false), or once per shard on the pool and then folds every shard's
  /// ledger into the simulator and `stats` in shard order.  Exceptions
  /// from any shard (e.g. LGG_REQUIRE failures) rethrow here.
  template <class Body>
  void run(Simulator& sim, StepPhase phase, StepStats& stats,
           PhaseClock& clock, const Body& body, bool may_fan_out = true) {
    if (!fans_out() || !may_fan_out) {
      Inline part{sim.net_, stats};
      body(part);
      return;
    }
    arm_drift(sim);
    fan_out(phase, clock, [&](std::size_t s) { body(shards_[s]); });
    fold(sim, stats);
  }

  /// Selection for K > 1 and a local_selection() protocol: every shard
  /// selects for its own band against the shared read-only view, and the
  /// per-shard lists are appended to `out` in shard order — ascending
  /// sender order, the inline select_transmissions order.
  void select(Simulator& sim, const StepView& view, PhaseClock& clock,
              std::vector<Transmission>& out);

 private:
  /// The K > 1 part: the node-id band [lo, hi) plus its working state,
  /// reset at every fold.  Its ledger is an exact (wraparound-safe)
  /// mirror of the simulator's, folded in shard order.
  struct Shard {
    const SdNetwork& net;
    NodeId lo;
    NodeId hi;
    bool drift_on = false;  ///< telemetry is armed this step
    StepStats stats{};  ///< only the node-local phases' counters are used
    PacketCount sum_q_delta = 0;
    detail::QuadAccum sum_sq_delta = 0;
    /// Drift contributions keyed by v - lo.
    obs::DriftAttributor drift{};
    std::vector<Transmission> txs{};  ///< selection output, grouped by node
    std::uint64_t active_nodes = 0;
    std::uint64_t busy_nanos = 0;  ///< this shard's work time (profiling)

    /// The band's slice of an ascending node list.
    [[nodiscard]] std::span<const NodeId> band(
        std::span<const NodeId> ids) const {
      const auto first = std::lower_bound(ids.begin(), ids.end(), lo);
      return {first, std::lower_bound(first, ids.end(), hi)};
    }
    [[nodiscard]] std::span<const NodeId> sources() const {
      return band(net.sources());
    }
    [[nodiscard]] std::span<const NodeId> sinks() const {
      return band(net.sinks());
    }
    [[nodiscard]] bool owns(NodeId v) const { return v >= lo && v < hi; }
    void apply(Simulator& sim, NodeId v, PacketCount delta,
               obs::DriftCause cause) {
      detail::mutate_queue(sim.queue_[static_cast<std::size_t>(v)], delta,
                           sum_q_delta, sum_sq_delta,
                           drift_on ? &drift : nullptr, v - lo, cause);
    }
  };

  /// Runs body(shard) for every shard on the pool; while `clock` is on,
  /// times each shard and records its span on lane shard+1.
  void fan_out(StepPhase phase, PhaseClock& clock,
               const std::function<void(std::size_t)>& body);
  /// Points every shard's drift at the simulator's armed state, binding
  /// the per-shard tables on first use.
  void arm_drift(const Simulator& sim);
  void fold(Simulator& sim, StepStats& stats);

  std::vector<NodeId> ids_;  ///< 0..n-1; shard s selects for a sub-span
  std::vector<Shard> shards_;
  std::unique_ptr<analysis::ThreadPool> pool_;  // last: joined first
};

}  // namespace lgg::core
