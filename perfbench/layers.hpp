// Outside-in layer timing for the traced run.
//
// Each wrapper owns (or points at) the real component and forwards every
// virtual of its interface unchanged, timing the calls into it with
// steady_clock.  Nothing is added inside src/: the wrappers sit at the
// interface seams the simulator already exposes, so a traced run follows
// the same trajectory as a plain one (the benchmark checks the
// fingerprints match) and the plain run keeps measuring the stock
// components.
//
// Concurrency: the shard engine calls RoutingProtocol::select_for_nodes and
// ArrivalProcess::packets from pool threads.  Selection records into one
// cache-line-sized slot per shard, written only by the thread running that
// shard and folded by the main thread after the step (the pool's join
// orders the writes before the fold); arrival time goes to relaxed atomic
// counters.  No locks are taken.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/admission.hpp"
#include "core/arrival.hpp"
#include "core/interference.hpp"
#include "core/loss.hpp"
#include "core/protocol.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t nanos(Clock::time_point from,
                                         Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

inline constexpr std::size_t kMaxShards = 64;

/// One shard's selection call in the current step.
struct alignas(64) ShardSlot {
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint64_t tx = 0;
  std::uint64_t links = 0;
  bool used = false;
};

/// Everything the wrappers accumulate over a traced run.
struct LayerStats {
  // RoutingProtocol.
  std::uint64_t select_ns = 0;  ///< serial select_transmissions calls
  std::uint64_t tx = 0;         ///< transmissions proposed
  std::uint64_t links_scanned = 0;
  std::uint64_t active_nodes = 0;
  /// Node -> shard, as graph::partition_edge_cut assigns them (the shard
  /// engine's ownership); set before the first sharded step.
  std::vector<std::uint32_t> shard_of;
  std::array<ShardSlot, kMaxShards> shards{};
  std::uint64_t shard_steps = 0;
  std::uint64_t shard_max_busy_ns = 0;   ///< Σ_steps max_s busy
  std::uint64_t shard_mean_busy_ns = 0;  ///< Σ_steps mean_s busy

  // Scheduler and LossModel.
  std::uint64_t schedule_ns = 0;
  std::uint64_t loss_mark_ns = 0;

  // ArrivalProcess (packets() may run on pool threads).
  std::atomic<std::uint64_t> arrival_ns{0};

  // AdmissionController.
  std::uint64_t begin_ns = 0;
  std::uint64_t begin_calls = 0;
  std::uint64_t patch_ns = 0;  ///< begin_step on steps whose topology moved
  std::uint64_t patch_events = 0;
  std::uint64_t admit_ns = 0;
  std::uint64_t admit_calls = 0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t last_topology_version = 0;

  // TelemetrySink.
  std::uint64_t sink_ns = 0;
  std::uint64_t sink_bytes = 0;

  /// Zeroes every total (the shard map stays): called when warm-up ends.
  void reset_totals() {
    select_ns = tx = links_scanned = active_nodes = 0;
    shards.fill(ShardSlot{});
    shard_steps = shard_max_busy_ns = shard_mean_busy_ns = 0;
    schedule_ns = loss_mark_ns = 0;
    arrival_ns.store(0, std::memory_order_relaxed);
    begin_ns = begin_calls = patch_ns = patch_events = 0;
    admit_ns = admit_calls = offered = admitted = 0;
    sink_ns = sink_bytes = 0;
  }

  /// Folds this step's per-shard selection slots into the totals and clears
  /// them.  Call on the main thread after every step.
  void fold_step() {
    std::uint64_t max_busy = 0;
    std::uint64_t sum_busy = 0;
    std::uint64_t used = 0;
    for (ShardSlot& slot : shards) {
      if (!slot.used) continue;
      const std::uint64_t busy = nanos(slot.start, slot.end);
      max_busy = std::max(max_busy, busy);
      sum_busy += busy;
      ++used;
      tx += slot.tx;
      links_scanned += slot.links;
      slot = ShardSlot{};
    }
    if (used == 0) return;
    ++shard_steps;
    shard_max_busy_ns += max_busy;
    shard_mean_busy_ns += sum_busy / used;
  }
};

/// Adds the links LGG's selection walks for node `u`: every incident link
/// of a node holding packets (select_node returns before touching the
/// links of an empty node).
inline void count_scan(const lgg::core::StepView& view, lgg::NodeId u,
                       std::uint64_t& links, std::uint64_t& active) {
  if (view.queue[static_cast<std::size_t>(u)] <= 0) return;
  ++active;
  links += view.incidence->incident(u).size();
}

class TracedProtocol final : public lgg::core::RoutingProtocol {
 public:
  TracedProtocol(std::unique_ptr<lgg::core::RoutingProtocol> inner,
                 LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void select_transmissions(const lgg::core::StepView& view, lgg::Rng& rng,
                            std::vector<lgg::core::Transmission>& out)
      override {
    const std::size_t before = out.size();
    const auto start = Clock::now();
    inner_->select_transmissions(view, rng, out);
    stats_.select_ns += nanos(start, Clock::now());
    stats_.tx += out.size() - before;
    for (lgg::NodeId u = 0; u < view.net->node_count(); ++u) {
      count_scan(view, u, stats_.links_scanned, stats_.active_nodes);
    }
  }
  [[nodiscard]] bool local_selection() const override {
    return inner_->local_selection();
  }
  std::uint64_t select_for_nodes(const lgg::core::StepView& view,
                                 std::span<const lgg::NodeId> nodes,
                                 std::vector<lgg::core::Transmission>& out)
      override {
    const std::size_t before = out.size();
    const auto start = Clock::now();
    const std::uint64_t active = inner_->select_for_nodes(view, nodes, out);
    const auto end = Clock::now();
    if (nodes.empty()) return active;
    ShardSlot& slot = stats_.shards[shard_of(nodes.front())];
    slot.start = start;
    slot.end = end;
    slot.tx = out.size() - before;
    // Active nodes come back through note_selection_work.
    std::uint64_t ignored = 0;
    slot.links = 0;
    for (const lgg::NodeId u : nodes) count_scan(view, u, slot.links, ignored);
    slot.used = true;
    return active;
  }
  void note_selection_work(std::uint64_t active) override {
    stats_.active_nodes += active;
    inner_->note_selection_work(active);
  }
  void reset() override { inner_->reset(); }
  void register_metrics(lgg::obs::MetricRegistry& registry) override {
    inner_->register_metrics(registry);
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  [[nodiscard]] std::size_t shard_of(lgg::NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    if (i >= stats_.shard_of.size() || stats_.shard_of[i] >= kMaxShards) {
      throw std::logic_error(
          "TracedProtocol: sharded selection without a shard map");
    }
    return stats_.shard_of[i];
  }

  std::unique_ptr<lgg::core::RoutingProtocol> inner_;
  LayerStats& stats_;
};

class TracedScheduler final : public lgg::core::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<lgg::core::Scheduler> inner,
                  LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void schedule(const lgg::core::StepView& view,
                std::span<const lgg::core::Transmission> txs, lgg::Rng& rng,
                std::vector<char>& keep) override {
    const auto start = Clock::now();
    inner_->schedule(view, txs, rng, keep);
    stats_.schedule_ns += nanos(start, Clock::now());
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }
  void register_metrics(lgg::obs::MetricRegistry& registry) override {
    inner_->register_metrics(registry);
  }

 private:
  std::unique_ptr<lgg::core::Scheduler> inner_;
  LayerStats& stats_;
};

class TracedLoss final : public lgg::core::LossModel {
 public:
  TracedLoss(std::unique_ptr<lgg::core::LossModel> inner, LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void mark_losses(const lgg::core::StepView& view,
                   std::span<const lgg::core::Transmission> txs,
                   lgg::Rng& rng, std::vector<char>& lost) override {
    const auto start = Clock::now();
    inner_->mark_losses(view, txs, rng, lost);
    stats_.loss_mark_ns += nanos(start, Clock::now());
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<lgg::core::LossModel> inner_;
  LayerStats& stats_;
};

class TracedArrival final : public lgg::core::ArrivalProcess {
 public:
  TracedArrival(std::unique_ptr<lgg::core::ArrivalProcess> inner,
                LayerStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  lgg::PacketCount packets(lgg::NodeId v, lgg::Cap in_rate, lgg::TimeStep t,
                           lgg::Rng& rng) override {
    const auto start = Clock::now();
    const lgg::PacketCount a = inner_->packets(v, in_rate, t, rng);
    stats_.arrival_ns.fetch_add(nanos(start, Clock::now()),
                                std::memory_order_relaxed);
    return a;
  }
  void begin_step(const lgg::core::ArrivalContext& ctx) override {
    const auto start = Clock::now();
    inner_->begin_step(ctx);
    stats_.arrival_ns.fetch_add(nanos(start, Clock::now()),
                                std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<lgg::NodeId>* active_sources()
      const override {
    return inner_->active_sources();
  }
  [[nodiscard]] bool parallel_safe() const override {
    return inner_->parallel_safe();
  }
  void register_metrics(lgg::obs::MetricRegistry& registry) override {
    inner_->register_metrics(registry);
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<lgg::core::ArrivalProcess> inner_;
  LayerStats& stats_;
};

/// Wraps an admission controller the caller owns (the simulator does not
/// own controllers either).
class TracedAdmission final : public lgg::core::AdmissionController {
 public:
  TracedAdmission(lgg::core::AdmissionController& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  void begin_step(const StepContext& ctx) override {
    const auto start = Clock::now();
    inner_.begin_step(ctx);
    const std::uint64_t ns = nanos(start, Clock::now());
    stats_.begin_ns += ns;
    ++stats_.begin_calls;
    if (ctx.topology_version != stats_.last_topology_version) {
      stats_.patch_ns += ns;
      ++stats_.patch_events;
      stats_.last_topology_version = ctx.topology_version;
    }
  }
  lgg::PacketCount admit(lgg::NodeId v, lgg::Cap in_rate,
                         lgg::PacketCount offered) override {
    const auto start = Clock::now();
    const lgg::PacketCount admitted = inner_.admit(v, in_rate, offered);
    stats_.admit_ns += nanos(start, Clock::now());
    ++stats_.admit_calls;
    stats_.offered += static_cast<std::uint64_t>(offered);
    stats_.admitted += static_cast<std::uint64_t>(admitted);
    return admitted;
  }
  [[nodiscard]] int mode() const override { return inner_.mode(); }
  [[nodiscard]] lgg::PacketCount total_shed() const override {
    return inner_.total_shed();
  }
  [[nodiscard]] double overload_bound() const override {
    return inner_.overload_bound();
  }
  void register_metrics(lgg::obs::MetricRegistry& registry) override {
    inner_.register_metrics(registry);
  }
  void save_state(std::ostream& out) const override { inner_.save_state(out); }
  void load_state(std::istream& in) override { inner_.load_state(in); }

 private:
  lgg::core::AdmissionController& inner_;
  LayerStats& stats_;
};

class TracedSink final : public lgg::obs::TelemetrySink {
 public:
  TracedSink(lgg::obs::TelemetrySink& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  void write_line(std::string_view line) override {
    const auto start = Clock::now();
    inner_.write_line(line);
    stats_.sink_ns += nanos(start, Clock::now());
    stats_.sink_bytes += line.size() + 1;  // the sink appends '\n'
  }
  void flush() override { inner_.flush(); }

 private:
  lgg::obs::TelemetrySink& inner_;
  LayerStats& stats_;
};

}  // namespace perfbench
