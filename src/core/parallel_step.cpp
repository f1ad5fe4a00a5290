#include "core/parallel_step.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "graph/partition.hpp"

namespace lgg::core {

namespace {

[[nodiscard]] std::size_t default_threads(std::uint32_t shard_count) {
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  return std::min<std::size_t>(shard_count, hw);
}

[[nodiscard]] std::uint64_t nanos_between(StepProfiler::Clock::time_point a,
                                          StepProfiler::Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

void PhaseClock::span(std::size_t lane, StepPhase phase, std::uint16_t shard,
                      Clock::time_point start, Clock::time_point end) const {
  trc_->lane(lane).record({static_cast<std::uint64_t>(t_),
                           trc_->since_epoch(start), nanos_between(start, end),
                           obs::current_thread_index(),
                           static_cast<std::uint16_t>(phase), shard});
}

void PhaseClock::lap(StepPhase phase, std::uint64_t items) {
  if (!on()) return;
  // A fanned-out phase's wall time is the main thread's fan-out-to-join
  // span (>= the slowest shard; phases never overlap, so the eight laps
  // still sum to the step wall time).
  const auto now = Clock::now();
  const std::uint64_t wall = nanos_between(mark_, now);
  if (prof_ != nullptr) {
    prof_->record(phase, wall, shard_nanos_.value_or(wall), items);
  }
  if (trc_ != nullptr) span(0, phase, obs::kSerialShard, mark_, now);
  shard_nanos_.reset();
  mark_ = now;
}

ShardEngine::ShardEngine(const SdNetwork& net, std::uint32_t shard_count,
                         std::size_t threads) {
  if (shard_count == 1) return;
  const std::vector<NodeId> lo =
      graph::band_offsets(net.node_count(), shard_count);
  ids_.resize(static_cast<std::size_t>(net.node_count()));
  std::iota(ids_.begin(), ids_.end(), NodeId{0});
  pool_ = std::make_unique<analysis::ThreadPool>(
      threads != 0 ? threads : default_threads(shard_count));
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_.push_back(Shard{net, lo[s], lo[s + 1]});
  }
}

void ShardEngine::fan_out(StepPhase phase, PhaseClock& clock,
                          const std::function<void(std::size_t)>& body) {
  if (!clock.on()) {
    analysis::parallel_for(*pool_, shards_.size(), body);
    return;
  }
  // Lane 0 belongs to the main thread, lane s+1 to shard s; grown here,
  // outside the parallel region, so workers only ever index existing lanes.
  obs::SpanTracer* const trc = clock.tracer();
  if (trc != nullptr) trc->ensure_lanes(shards_.size() + 1);
  analysis::parallel_for(*pool_, shards_.size(), [&](std::size_t s) {
    const auto start = PhaseClock::Clock::now();
    body(s);
    const auto end = PhaseClock::Clock::now();
    shards_[s].busy_nanos = nanos_between(start, end);
    if (trc != nullptr) {
      clock.span(s + 1, phase, static_cast<std::uint16_t>(s), start, end);
    }
  });
  for (const Shard& sh : shards_) clock.add_shard_time(sh.busy_nanos);
}

void ShardEngine::arm_drift(const Simulator& sim) {
  // Bound lazily: telemetry may attach (or arm) after enable_sharding.
  for (Shard& sh : shards_) {
    sh.drift_on = sim.drift_ != nullptr;
    const NodeId nodes = sh.hi - sh.lo;
    if (sh.drift_on && sh.drift.node_count() != nodes) sh.drift.bind(nodes);
  }
}

void ShardEngine::select(Simulator& sim, const StepView& view,
                         PhaseClock& clock, std::vector<Transmission>& out) {
  fan_out(StepPhase::kSelection, clock, [&](std::size_t s) {
    Shard& sh = shards_[s];
    sh.txs.clear();
    sh.active_nodes = sim.protocol_->select_for_nodes(
        view,
        std::span<const NodeId>(ids_).subspan(
            static_cast<std::size_t>(sh.lo),
            static_cast<std::size_t>(sh.hi - sh.lo)),
        sh.txs);
  });
  // Bands ascend with the shard index, so the slices' concatenation is
  // grouped by sender in ascending order.
  std::uint64_t active = 0;
  for (const Shard& sh : shards_) {
    out.insert(out.end(), sh.txs.begin(), sh.txs.end());
    active += sh.active_nodes;
  }
  sim.protocol_->note_selection_work(active);
}

void ShardEngine::fold(Simulator& sim, StepStats& stats) {
  // Fixed shard order.  Every accumulator is an exact integer, so the fold
  // reproduces the inline accumulation regardless of which thread ran
  // which shard; drift contributions are re-recorded through the
  // attributor so its by-cause totals and touched set stay identical to
  // an inline run's.
  for (Shard& sh : shards_) {
    sim.sum_q_ += sh.sum_q_delta;
    sim.sum_sq_ += sh.sum_sq_delta;
    stats.injected += sh.stats.injected;
    stats.sent += sh.stats.sent;
    stats.lost += sh.stats.lost;
    stats.delivered += sh.stats.delivered;
    stats.extracted += sh.stats.extracted;
    if (sh.drift_on) {
      for (const NodeId local : sh.drift.touched()) {
        // Record every cause, zeros included: a zero-ΔP mutation (e.g. an
        // injection of 0 packets) still marks its node touched inline, and
        // the telemetry per_node list is exactly the touched set.
        for (std::size_t c = 0; c < obs::kDriftCauseCount; ++c) {
          const auto cause = static_cast<obs::DriftCause>(c);
          sim.drift_->record(
              sh.lo + local, cause,
              static_cast<std::uint64_t>(sh.drift.node_drift(local, cause)));
        }
      }
      sh.drift.begin_step();
    }
    sh.sum_q_delta = 0;
    sh.sum_sq_delta = 0;
    sh.stats = StepStats{};
  }
}

}  // namespace lgg::core
