#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/faults.hpp"
#include "core/scenarios.hpp"
#include "graph/partition.hpp"
#include "traffic/adversary.hpp"

namespace perfbench {

namespace core = lgg::core;
namespace obs = lgg::obs;
using lgg::EdgeId;
using lgg::NodeId;
using lgg::TimeStep;

namespace {

struct Shape {
  NodeId n = 0;        // random graphs: nodes; grids: side
  EdgeId m = 0;
  int sources = 0;
  int sinks = 0;
};

Shape shape_of(const WorkloadPlan& plan) {
  const bool small = plan.scale == Scale::kSmall;
  switch (plan.id) {
    case WorkloadId::kSparse1024:
      return small ? Shape{128, 512, 2, 2} : Shape{1024, 4096, 2, 2};
    case WorkloadId::kGrid256:
    case WorkloadId::kGrid256K4:
      return small ? Shape{24, 0, 0, 0} : Shape{256, 0, 0, 0};
    case WorkloadId::kSoakObserved:
      return small ? Shape{256, 1024, 4, 4} : Shape{4096, 16384, 32, 32};
  }
  throw std::logic_error("unknown workload");
}

// Soak cadences besides kSnapshotEvery (the same at both scales).
constexpr std::size_t kFlightCapacity = 4096;
constexpr std::size_t kHotspotK = 8;
constexpr TimeStep kChurnPeriod = 100;  // one edge_remove per period...
constexpr TimeStep kChurnDown = 40;     // ...re-added this many steps later
constexpr int kChainRetain = 3;

double millis_since(Clock::time_point start) {
  return static_cast<double>(nanos(start, Clock::now())) * 1e-6;
}

core::FaultSchedule churn_schedule(EdgeId edges, TimeStep horizon,
                                   std::uint64_t seed) {
  core::FaultSchedule schedule;
  lgg::Rng rng(seed);
  for (TimeStep at = kChurnPeriod / 2; at + kChurnDown < horizon;
       at += kChurnPeriod) {
    const auto edge = static_cast<EdgeId>(rng.uniform_int(0, edges - 1));
    core::FaultEvent remove;
    remove.kind = core::FaultKind::kEdgeRemove;
    remove.at = at;
    remove.edge = edge;
    core::FaultEvent add = remove;
    add.kind = core::FaultKind::kEdgeAdd;
    add.at = at + kChurnDown;
    schedule.add(remove);
    schedule.add(add);
  }
  return schedule;
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const WorkloadId id :
       {WorkloadId::kSparse1024, WorkloadId::kGrid256, WorkloadId::kGrid256K4,
        WorkloadId::kSoakObserved}) {
    if (workload_name(id) == name) return id;
  }
  return std::nullopt;
}

std::string_view workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kSparse1024: return "sparse1024";
    case WorkloadId::kGrid256: return "grid256";
    case WorkloadId::kGrid256K4: return "grid256_k4";
    case WorkloadId::kSoakObserved: return "soak_observed";
  }
  return "?";
}

WorkloadPlan plan_for(WorkloadId id, Scale scale) {
  const bool small = scale == Scale::kSmall;
  WorkloadPlan plan;
  plan.id = id;
  plan.scale = scale;
  plan.min_samples = small ? 0 : 1200;  // 12 samples beyond p99
  plan.max_steps = 1'000'000;
  switch (id) {
    case WorkloadId::kSparse1024:
      // From empty queues the gradient settles within ~3000 steps; the
      // timed blocks run in the bounded steady state of Lemma 1.
      plan.instances = 3;
      plan.warmup = small ? 300 : 3000;
      plan.block = small ? 50 : 500;
      break;
    case WorkloadId::kGrid256K4:
      plan.shards = 4;
      [[fallthrough]];
    case WorkloadId::kGrid256:
      // The seeded backlog (~490k packets) drains by ~500 packets a step,
      // so work per step stays flat (~126k transmissions) over a run.
      plan.instances = 2;
      plan.warmup = small ? 5 : 10;
      plan.block = 10;
      break;
    case WorkloadId::kSoakObserved:
      // One chain append per block, so every block carries its share.
      plan.instances = 2;
      plan.warmup = small ? 100 : 500;
      plan.block = small ? 100 : 250;
      plan.append_every = plan.block;
      plan.max_steps = small ? 2000 : 40000;
      break;
  }
  return plan;
}

Instance::Instance(const WorkloadPlan& plan, std::uint64_t seed, int index,
                   InstanceOptions options, const std::filesystem::path& dir)
    : plan_(plan), dir_(dir) {
  const Shape shape = shape_of(plan);
  const std::uint64_t base =
      lgg::derive_seed(seed, static_cast<std::uint64_t>(index));
  const bool traced = options.traced;
  if (traced) {
    layers_ = std::make_unique<LayerStats>();
    profiler_ = std::make_unique<core::StepProfiler>();
  }

  // 1. Network (random graphs retry until feasible and unsaturated).
  auto start = Clock::now();
  core::SdNetwork net =
      plan.id == WorkloadId::kGrid256 || plan.id == WorkloadId::kGrid256K4
          ? core::scenarios::grid_single(shape.n, shape.n)
          : core::scenarios::random_unsaturated(
                shape.n, shape.m, shape.sources, shape.sinks,
                lgg::derive_seed(base, 1));
  if (traced) {
    setup_.build_ms = millis_since(start);
    if (plan.id == WorkloadId::kSparse1024 ||
        plan.id == WorkloadId::kSoakObserved) {
      start = Clock::now();
      const auto report = core::analyze(net);
      setup_.feasibility_ms = millis_since(start);
      if (!report.feasible) throw std::runtime_error("infeasible network");
    }
  }

  // 2. Simulator with its components.
  core::SimulatorOptions sim_options;
  sim_options.seed = lgg::derive_seed(base, 2);
  std::unique_ptr<core::RoutingProtocol> protocol;
  if (traced) {
    protocol = std::make_unique<TracedProtocol>(
        std::make_unique<core::LggProtocol>(), *layers_);
  }
  sim_ = std::make_unique<core::Simulator>(std::move(net), sim_options,
                                           std::move(protocol));
  core::Simulator& sim = *sim_;
  const bool soak = plan.id == WorkloadId::kSoakObserved;
  std::unique_ptr<core::ArrivalProcess> arrival;
  if (soak) {
    lgg::traffic::AdversaryOptions adversary;
    adversary.strategy = lgg::traffic::AdversaryStrategy::kQueueAware;
    adversary.rho = 0.9;
    arrival = std::make_unique<lgg::traffic::AdversarialArrival>(adversary);
  }
  if (traced) {
    if (arrival == nullptr) arrival = std::make_unique<core::ExactArrival>();
    arrival = std::make_unique<TracedArrival>(std::move(arrival), *layers_);
    sim.set_scheduler(std::make_unique<TracedScheduler>(
        std::make_unique<core::NoInterference>(), *layers_));
    sim.set_loss(std::make_unique<TracedLoss>(
        std::make_unique<core::NoLoss>(), *layers_));
    sim.set_profiler(profiler_.get());
  }
  if (arrival != nullptr) sim.set_arrival(std::move(arrival));

  // 3. Grid backlog: an i.i.d. queue in [0, 16) on every node.
  if (!soak && plan.id != WorkloadId::kSparse1024) {
    lgg::Rng rng(lgg::derive_seed(base, 3));
    for (NodeId v = 0; v < sim.network().node_count(); ++v) {
      sim.set_initial_queue(v, rng.uniform_int(0, 15));
    }
  }

  // 4. Soak: churn, governor, telemetry, checkpoint chain.
  if (soak) {
    sim.set_faults(std::make_unique<core::FaultInjector>(
        churn_schedule(sim.network().topology().edge_count(), plan.max_steps,
                       lgg::derive_seed(base, 4)),
        lgg::derive_seed(base, 5)));
    start = Clock::now();
    governor_ = std::make_unique<lgg::control::AdmissionGovernor>(
        sim.network(), lgg::control::GovernorOptions{});
    if (traced) {
      setup_.governor_ms = millis_since(start);
      traced_admission_ =
          std::make_unique<TracedAdmission>(*governor_, *layers_);
      sim.set_admission(traced_admission_.get());
    } else {
      sim.set_admission(governor_.get());
    }
    obs::TelemetryOptions telemetry;
    telemetry.snapshot_every = kSnapshotEvery;
    telemetry.flight_capacity = kFlightCapacity;
    telemetry.hotspot_k = kHotspotK;
    telemetry_ = std::make_unique<obs::Telemetry>(telemetry);
    jsonl_ = std::make_unique<std::ofstream>(dir_ / "telemetry.jsonl",
                                             std::ios::binary);
    if (!jsonl_->is_open()) {
      throw std::runtime_error("cannot open " +
                               (dir_ / "telemetry.jsonl").string());
    }
    sink_ = std::make_unique<obs::OstreamJsonlSink>(*jsonl_);
    if (traced) {
      traced_sink_ = std::make_unique<TracedSink>(*sink_, *layers_);
      telemetry_->set_sink(traced_sink_.get());
    } else {
      telemetry_->set_sink(sink_.get());
    }
    sim.set_telemetry(telemetry_.get());
    chain_ = std::make_unique<core::CheckpointChain>(
        (dir_ / "run.ckpt").string(), kChainRetain);
  }

  // 5. Shard engine (its constructor partitions the graph).
  if (plan.shards > 0 && !options.force_serial) {
    if (traced) {
      start = Clock::now();
      layers_->shard_of =
          lgg::graph::partition_edge_cut(sim.network().topology(),
                                         plan.shards);
      setup_.partition_ms = millis_since(start);
      setup_.cut_edges =
          lgg::graph::cut_edges(sim.network().topology(), layers_->shard_of);
    }
    sim.enable_sharding(plan.shards, plan.shards);
  }
}

Instance::~Instance() = default;

Instance::Step Instance::step() {
  Step out;
  out.stats = sim_->step();
  if (chain_ != nullptr && plan_.append_every > 0 &&
      sim_->now() % plan_.append_every == 0) {
    const auto start = Clock::now();
    chain_->append(*sim_, static_cast<std::uint64_t>(jsonl_->tellp()));
    out.append_ns = nanos(start, Clock::now());
  }
  if (layers_ != nullptr) layers_->fold_step();
  return out;
}

bool Instance::jsonl_matches_cadence() {
  if (jsonl_ == nullptr) return false;
  jsonl_->flush();
  std::ifstream in(dir_ / "telemetry.jsonl", std::ios::binary);
  const auto lines = static_cast<TimeStep>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
  const TimeStep snapshots = sim_->now() / kSnapshotEvery;
  const TimeStep expected = snapshots == 0 ? 0 : 1 + 2 * snapshots;
  return lines == expected;
}

std::uint64_t fingerprint(const core::Simulator& sim) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const lgg::PacketCount q : sim.queues()) {
    mix(static_cast<std::uint64_t>(q));
  }
  const double potential = sim.network_state();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &potential, sizeof bits);
  mix(bits);
  mix(static_cast<std::uint64_t>(sim.now()));
  const core::CumulativeStats& c = sim.cumulative();
  for (const lgg::PacketCount v :
       {c.injected, c.proposed, c.suppressed, c.conflicted, c.sent, c.lost,
        c.delivered, c.extracted, c.crash_wiped, c.shed,
        static_cast<lgg::PacketCount>(c.steps)}) {
    mix(static_cast<std::uint64_t>(v));
  }
  return h;
}

bool chain_round_trips(Instance& source, std::uint64_t seed, int index,
                       const std::filesystem::path& scratch) {
  core::CheckpointChain* chain = source.chain();
  if (chain == nullptr || chain->latest() == 0) return false;
  std::filesystem::create_directories(scratch);
  Instance fresh(source.plan(), seed, index, InstanceOptions{}, scratch);
  core::CheckpointChain reader(chain->base_path(), kChainRetain);
  const auto recovered = reader.recover(fresh.sim());
  if (!recovered || recovered->generation != chain->latest() ||
      recovered->rollback_depth != 0) {
    return false;
  }
  std::ifstream in(chain->generation_path(chain->latest()), std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::ostringstream again(std::ios::binary);
  fresh.sim().save_checkpoint(again);
  return !on_disk.empty() && again.str() == on_disk;
}

std::uint64_t working_set_bytes(const core::SdNetwork& net) {
  const auto n = static_cast<std::uint64_t>(net.node_count());
  const auto m = static_cast<std::uint64_t>(net.topology().edge_count());
  // queue + incidence offset + spec per node; two incidence entries, the
  // endpoints and one mask byte per edge.
  return n * (sizeof(lgg::PacketCount) + sizeof(std::size_t) +
              sizeof(core::NodeSpec)) +
         m * (2 * sizeof(lgg::graph::IncidentLink) +
              sizeof(lgg::graph::Endpoints) + 1);
}

}  // namespace perfbench
