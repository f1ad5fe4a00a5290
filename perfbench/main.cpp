// lgg_perfbench — the repository benchmark.
//
//   lgg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--commit SHA]
//
// --trace 0 is the plain run: stock components, no profiler, steady_clock
// wall time around every closed-loop step.  It prints the end-to-end
// metrics.  --trace 1 is the traced run of the same workload and seed: plain
// and traced instances alternate block by block, the traced ones wrapped
// by layers.hpp and profiled, and it prints the per-layer metrics.  Both
// check the run's outputs (see README.md) and end with one JSON line.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = lgg::core;
using lgg::TimeStep;

constexpr std::size_t kSetupSamples = 10;
/// The host alternates, 1-3 s at a time, between a fast state and one
/// about 1.5x slower, on every CPU alike.  A block counts as fast-state
/// when its time per step is within kFastTolerance of its instance's
/// 10th-percentile block; plain-run timings are read from those blocks.
constexpr double kFastTolerance = 1.1;
/// A run that cannot collect enough fast-state blocks stops after this
/// many times --seconds and reads its fastest blocks instead.
constexpr double kMaxStretch = 2.0;
/// Hard limit on one run's timed region, far inside the 180 s a run may take.
constexpr double kMaxTimedSeconds = 120.0;
constexpr int kCheckpointRounds = 3;

struct Args {
  WorkloadId workload = WorkloadId::kSparse1024;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lgg_perfbench: " << why
            << "\nusage: lgg_perfbench --workload "
               "sparse1024|grid256|grid256_k4|soak_observed --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--commit SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto id = parse_workload(value);
      if (!id) usage("unknown workload '" + value + "'");
      args.workload = *id;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.work_dir.empty()) usage("--work-dir is required");
  return args;
}

/// A fresh directory for one run's files, removed on every exit path.
class RunDir {
 public:
  explicit RunDir(const fs::path& parent) {
    fs::create_directories(parent);
    std::string pattern = (parent / "run-XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent.string());
    }
    path_ = pattern;
  }
  ~RunDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  RunDir(RunDir&&) = delete;
  RunDir& operator=(RunDir&&) = delete;

  /// A fresh subdirectory.
  [[nodiscard]] fs::path sub(const std::string& name) const {
    const fs::path p = path_ / name;
    fs::create_directories(p);
    return p;
  }

 private:
  fs::path path_;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "lgg_perfbench: check failed: " << what << "\n";
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(nanos(a, b)) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host and build fingerprint of this run.
std::map<std::string, std::string> fingerprint_fields(const Args& args,
                                                      const Instance& inst) {
  const auto& net = inst.sim().network();
  std::map<std::string, std::string> f;
  f["nproc"] = std::to_string(std::thread::hardware_concurrency());
  f["cpu_model"] = cpu_model();
  f["l2_bytes"] = std::to_string(::sysconf(_SC_LEVEL2_CACHE_SIZE));
  f["l3_bytes"] = std::to_string(::sysconf(_SC_LEVEL3_CACHE_SIZE));
  f["compiler"] = PERFBENCH_COMPILER;
  f["build_type"] = PERFBENCH_BUILD_TYPE;
  f["commit"] = args.commit;
  f["seed"] = std::to_string(args.seed);
  f["workload"] = std::string(workload_name(args.workload));
  f["nodes"] = std::to_string(net.node_count());
  f["edges"] = std::to_string(net.topology().edge_count());
  f["working_set_bytes"] = std::to_string(working_set_bytes(net));
  return f;
}

void print_result(const Args& args, const Instance& sample_instance,
                  const Checks& checks, const std::vector<Metric>& metrics,
                  const std::map<std::string, std::string>& extra) {
  const auto host = fingerprint_fields(args, sample_instance);
  for (const auto& [key, value] : host) {
    std::cout << "# " << key << " = " << value << "\n";
  }
  for (const auto& [key, value] : extra) {
    std::cout << "# " << key << " = " << value << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << format_number(m.value) << " " << m.unit
              << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << format_number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}, \"fingerprint\": {";
  bool first = true;
  for (const auto& [key, value] : host) {
    json << (first ? "" : ", ") << "\"" << key << "\": \""
         << json_escape(value) << "\"";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// Runs `inst` up to step `target` (untimed).
void advance_to(Instance& inst, TimeStep target) {
  while (inst.sim().now() < target) inst.step();
}

/// Loop control of the traced run: at least `seconds` and at least
/// `min_samples` traced steps.
struct Deadline {
  Clock::time_point start = Clock::now();
  double seconds = 0.0;
  std::size_t min_samples = 0;

  [[nodiscard]] bool reached(std::size_t samples) const {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed > kMaxTimedSeconds) {
      throw std::runtime_error("run could not reach its sample floor");
    }
    return elapsed >= seconds && samples >= min_samples;
  }
};

void check_instance(Checks& checks, Instance& inst, const Args& args,
                    int index, const RunDir& dir, const std::string& tag) {
  checks.expect(inst.sim().conserves_packets(), tag + ": conservation");
  if (inst.chain() == nullptr) return;
  checks.expect(inst.jsonl_matches_cadence(),
                tag + ": JSONL lines match the snapshot cadence");
  checks.expect(chain_round_trips(inst, args.seed, index,
                                  dir.sub("verify-" + tag)),
                tag + ": newest chain generation restores and re-serializes "
                      "byte-identically");
}

/// The shard engine must reproduce the serial trajectory bit for bit.
void check_shard_equivalence(Checks& checks, const WorkloadPlan& plan,
                             const Args& args, const RunDir& dir,
                             TimeStep steps, std::uint64_t expected) {
  if (plan.shards == 0) return;
  InstanceOptions serial;
  serial.force_serial = true;
  Instance reference(plan, args.seed, 0, serial, dir.sub("serial-ref"));
  advance_to(reference, steps);
  checks.expect(fingerprint(reference.sim()) == expected,
                "shard engine trajectory equals the serial engine's");
}

int run_plain(const Args& args) {
  const WorkloadPlan plan = plan_for(args.workload, Scale::kFull);
  RunDir dir(args.work_dir);
  Checks checks;

  // Setup: generator call to ready-to-step, sampled at points spread over
  // the whole run so the median does not rest on one moment of host load.
  std::vector<double> setup_s;
  const auto time_setup = [&](int index, const std::string& tag) {
    const auto start = Clock::now();
    auto inst = std::make_unique<Instance>(plan, args.seed, index,
                                           InstanceOptions{}, dir.sub(tag));
    setup_s.push_back(seconds_between(start, Clock::now()));
    return inst;
  };
  std::vector<std::unique_ptr<Instance>> insts;
  for (int k = 0; k < plan.instances; ++k) {
    insts.push_back(time_setup(k, "plain" + std::to_string(k)));
  }
  const std::size_t spread_setups = kSetupSamples - insts.size();
  const auto extra_setup = [&] {
    const std::size_t j = setup_s.size();
    (void)time_setup(static_cast<int>(j % insts.size()),
                     "setup" + std::to_string(j));
  };
  for (auto& inst : insts) advance_to(*inst, plan.warmup);

  // Timed blocks, round-robin over the instances, until the run has lasted
  // --seconds and its fast-state blocks hold the sample floor.
  const auto instances = insts.size();
  std::vector<std::vector<TimedBlock>> blocks(instances);
  const auto floor_blocks = static_cast<std::size_t>(
      (plan.min_samples + instances * static_cast<std::size_t>(plan.block) -
       1) /
      (instances * static_cast<std::size_t>(plan.block)));
  std::size_t samples = 0;
  std::size_t sequence = 0;
  std::size_t fast_blocks = 0;
  std::uint64_t first_fingerprint = 0;
  TimeStep first_steps = 0;
  const auto timed_start = Clock::now();
  for (;;) {
    for (std::size_t k = 0; k < instances; ++k) {
      Instance& inst = *insts[k];
      TimedBlock block;
      block.seq = sequence++;
      block.step_us.reserve(static_cast<std::size_t>(plan.block));
      const auto block_start = Clock::now();
      for (TimeStep i = 0; i < plan.block; ++i) {
        const auto start = Clock::now();
        inst.step();
        block.step_us.push_back(
            static_cast<double>(nanos(start, Clock::now())) * 1e-3);
      }
      block.wall_s = seconds_between(block_start, Clock::now());
      samples += block.step_us.size();
      blocks[k].push_back(std::move(block));
      if (k == 0 && first_steps == 0) {
        first_steps = inst.sim().now();
        first_fingerprint = fingerprint(inst.sim());
      }
    }
    const double elapsed = seconds_between(timed_start, Clock::now());
    const std::size_t taken = setup_s.size() - instances;
    if (taken < spread_setups &&
        elapsed >= args.seconds * static_cast<double>(taken) /
                       static_cast<double>(spread_setups)) {
      extra_setup();
    }
    const bool at_cap =
        insts.front()->sim().now() + plan.block > plan.max_steps;
    if (elapsed < args.seconds && !at_cap) continue;
    fast_blocks = blocks[0].size();
    for (auto& list : blocks) {
      fast_blocks =
          std::min(fast_blocks, sort_and_count_fast(list, kFastTolerance));
    }
    const bool floor_reached = blocks[0].size() >= floor_blocks;
    if (fast_blocks >= floor_blocks || at_cap ||
        (floor_reached && elapsed >= kMaxStretch * args.seconds)) {
      break;
    }
    if (elapsed > kMaxTimedSeconds) {
      throw std::runtime_error("timed region could not reach its sample floor");
    }
  }
  while (setup_s.size() < kSetupSamples) extra_setup();

  // Correctness, outside the timed region.
  for (std::size_t k = 0; k < insts.size(); ++k) {
    check_instance(checks, *insts[k], args, static_cast<int>(k), dir,
                   "plain" + std::to_string(k));
  }
  {
    InstanceOptions traced;
    traced.traced = true;
    Instance twin(plan, args.seed, 0, traced, dir.sub("traced-twin"));
    advance_to(twin, first_steps);
    checks.expect(fingerprint(twin.sim()) == first_fingerprint,
                  "traced run's trajectory equals the plain run's");
  }
  check_shard_equivalence(checks, plan, args, dir, first_steps,
                          first_fingerprint);

  // Timings come from the same number of fast-state blocks of every
  // instance (never fewer than the sample floor; see README.md), put back
  // in the order they ran.
  const std::size_t keep =
      std::min(std::max(fast_blocks, floor_blocks), blocks[0].size());
  std::vector<const TimedBlock*> kept;
  for (const auto& list : blocks) {
    for (std::size_t i = 0; i < keep; ++i) kept.push_back(&list[i]);
  }
  std::sort(kept.begin(), kept.end(),
            [](const TimedBlock* a, const TimedBlock* b) {
              return a->seq < b->seq;
            });
  std::vector<double> step_us;
  double kept_wall_s = 0.0;
  for (const TimedBlock* b : kept) {
    step_us.insert(step_us.end(), b->step_us.begin(), b->step_us.end());
    kept_wall_s += b->wall_s;
  }
  const double nodes =
      static_cast<double>(insts.front()->sim().network().node_count());
  const double attempted = static_cast<double>(checks.attempted);
  std::vector<Metric> metrics = {
      {"node_steps_per_s",
       nodes * static_cast<double>(step_us.size()) / kept_wall_s, "1/s"},
      {"step_us_p50", require_percentile(step_us, 0.50, "step_us_p50"), "us"},
      {"step_us_p99",
       windowed_percentile(step_us, 0.99, plan.min_samples, "step_us_p99"),
       "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"check_pass_ratio",
       (attempted - static_cast<double>(checks.failed)) / attempted, "ratio"},
  };
  print_result(args, *insts.front(), checks, metrics,
               {{"step_samples", std::to_string(samples)},
                {"kept_step_samples", std::to_string(step_us.size())},
                {"fast_blocks_per_instance", std::to_string(fast_blocks)},
                {"setup_samples", std::to_string(setup_s.size())}});
  return 0;
}

/// Totals over the traced instances of a --trace 1 run.
struct TracedTotals {
  std::uint64_t steps = 0;
  std::uint64_t step_ns = 0;  ///< sim.step() alone, without chain appends
  std::uint64_t proposed = 0;
  std::uint64_t conflicted = 0;
  std::uint64_t injection_visits = 0;
  std::vector<double> snapshot_step_us;
  std::vector<double> append_ms;
};

int run_traced(const Args& args) {
  const WorkloadPlan plan = plan_for(args.workload, Scale::kFull);
  RunDir dir(args.work_dir);
  Checks checks;

  std::vector<std::unique_ptr<Instance>> plain;
  std::vector<std::unique_ptr<Instance>> traced;
  InstanceOptions traced_options;
  traced_options.traced = true;
  for (int k = 0; k < plan.instances; ++k) {
    const std::string id = std::to_string(k);
    plain.push_back(std::make_unique<Instance>(
        plan, args.seed, k, InstanceOptions{}, dir.sub("plain" + id)));
    traced.push_back(std::make_unique<Instance>(
        plan, args.seed, k, traced_options, dir.sub("traced" + id)));
  }
  std::uint64_t patches_before = 0;
  std::uint64_t recomputes_before = 0;
  for (std::size_t k = 0; k < plain.size(); ++k) {
    advance_to(*plain[k], plan.warmup);
    advance_to(*traced[k], plan.warmup);
    traced[k]->layers()->reset_totals();
    traced[k]->profiler()->reset();
    if (const auto* gov = traced[k]->governor()) {
      patches_before += gov->sentinel().certificate_patches();
      recomputes_before += gov->sentinel().certificate_recomputes();
    }
  }

  // Alternate plain and traced blocks at the same trajectory position.
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  TracedTotals tt;
  std::uint64_t first_fingerprint = 0;
  TimeStep first_steps = 0;
  Deadline deadline{Clock::now(), args.seconds, plan.min_samples / 2};
  for (;;) {
    for (std::size_t k = 0; k < plain.size(); ++k) {
      for (TimeStep i = 0; i < plan.block; ++i) {
        const auto start = Clock::now();
        plain[k]->step();
        plain_us.push_back(static_cast<double>(nanos(start, Clock::now())) *
                           1e-3);
      }
      Instance& inst = *traced[k];
      for (TimeStep i = 0; i < plan.block; ++i) {
        const TimeStep t = inst.sim().now();
        const auto start = Clock::now();
        const Instance::Step step = inst.step();
        const std::uint64_t ns = nanos(start, Clock::now());
        traced_us.push_back(static_cast<double>(ns) * 1e-3);
        tt.step_ns += ns - step.append_ns;
        ++tt.steps;
        tt.proposed += static_cast<std::uint64_t>(step.stats.proposed);
        tt.conflicted += static_cast<std::uint64_t>(step.stats.conflicted);
        tt.injection_visits += inst.sim().last_injection_visits();
        if (step.append_ns > 0) {
          tt.append_ms.push_back(static_cast<double>(step.append_ns) * 1e-6);
        }
        if (inst.chain() != nullptr && (t + 1) % kSnapshotEvery == 0) {
          tt.snapshot_step_us.push_back(
              static_cast<double>(ns - step.append_ns) * 1e-3);
        }
      }
      const std::uint64_t fp = fingerprint(plain[k]->sim());
      checks.expect(fp == fingerprint(inst.sim()),
                    "traced block " + std::to_string(inst.sim().now()) +
                        " equals the plain run's trajectory");
      if (k == 0 && first_steps == 0) {
        first_steps = inst.sim().now();
        first_fingerprint = fp;
      }
    }
    if (deadline.reached(traced_us.size()) ||
        plain.front()->sim().now() + plan.block > plan.max_steps) {
      break;
    }
  }

  // Aggregate layers and profiler rows over the traced instances.
  LayerStats sum;
  std::array<core::PhaseTotals, core::kStepPhaseCount> phase{};
  std::uint64_t prof_wall = 0;
  std::uint64_t prof_cpu = 0;
  std::uint64_t patches = 0;
  std::uint64_t recomputes = 0;
  std::vector<double> build_ms;
  std::vector<double> feasibility_ms;
  std::vector<double> partition_ms;
  std::vector<double> cut_edges;
  std::vector<double> governor_ms;
  for (auto& inst_ptr : traced) {
    Instance& inst = *inst_ptr;
    const LayerStats& l = *inst.layers();
    sum.select_ns += l.select_ns;
    sum.schedule_ns += l.schedule_ns;
    sum.loss_mark_ns += l.loss_mark_ns;
    sum.tx += l.tx;
    sum.links_scanned += l.links_scanned;
    sum.active_nodes += l.active_nodes;
    sum.shard_steps += l.shard_steps;
    sum.shard_max_busy_ns += l.shard_max_busy_ns;
    sum.shard_mean_busy_ns += l.shard_mean_busy_ns;
    sum.arrival_ns += l.arrival_ns.load();
    sum.begin_ns += l.begin_ns;
    sum.begin_calls += l.begin_calls;
    sum.patch_ns += l.patch_ns;
    sum.patch_events += l.patch_events;
    sum.admit_ns += l.admit_ns;
    sum.admit_calls += l.admit_calls;
    sum.offered += l.offered;
    sum.admitted += l.admitted;
    sum.sink_ns += l.sink_ns;
    sum.sink_bytes += l.sink_bytes;
    const core::StepProfiler& prof = *inst.profiler();
    for (std::size_t p = 0; p < core::kStepPhaseCount; ++p) {
      const auto& row = prof.phase(static_cast<core::StepPhase>(p));
      phase[p].nanos += row.nanos;
      phase[p].cpu_nanos += row.cpu_nanos;
    }
    prof_wall += prof.total_nanos();
    prof_cpu += prof.total_cpu_nanos();
    if (const auto* gov = inst.governor()) {
      patches += gov->sentinel().certificate_patches();
      recomputes += gov->sentinel().certificate_recomputes();
    }
    const SetupLayers& s = inst.setup_layers();
    build_ms.push_back(s.build_ms);
    feasibility_ms.push_back(s.feasibility_ms);
    partition_ms.push_back(s.partition_ms);
    cut_edges.push_back(static_cast<double>(s.cut_edges));
    governor_ms.push_back(s.governor_ms);
  }

  // Checkpoint save/restore, timed directly (restoring the state just saved
  // leaves the trajectory where it was).
  std::vector<double> ckpt_bytes;
  std::vector<double> save_mbps;
  std::vector<double> restore_mbps;
  for (auto& inst_ptr : traced) {
    core::Simulator& sim = inst_ptr->sim();
    const std::uint64_t before = fingerprint(sim);
    for (int round = 0; round < kCheckpointRounds; ++round) {
      std::ostringstream out(std::ios::binary);
      auto start = Clock::now();
      sim.save_checkpoint(out);
      const double save_s = seconds_between(start, Clock::now());
      const std::string bytes = out.str();
      std::istringstream in(bytes, std::ios::binary);
      start = Clock::now();
      sim.restore_checkpoint(in);
      const double restore_s = seconds_between(start, Clock::now());
      const auto size = static_cast<double>(bytes.size());
      ckpt_bytes.push_back(size);
      save_mbps.push_back(size / save_s * 1e-6);
      restore_mbps.push_back(size / restore_s * 1e-6);
    }
    checks.expect(fingerprint(sim) == before,
                  "checkpoint save/restore leaves the state unchanged");
  }

  for (std::size_t k = 0; k < plain.size(); ++k) {
    check_instance(checks, *plain[k], args, static_cast<int>(k), dir,
                   "plain" + std::to_string(k));
    check_instance(checks, *traced[k], args, static_cast<int>(k), dir,
                   "traced" + std::to_string(k));
  }
  // Every wrapper-timed call runs inside one profiler lap (or, for the
  // sink, in the epilogue after the last lap), so on the same clock its
  // time cannot exceed that phase's: the per-layer rows add up.
  const auto lap_ns = [&](core::StepPhase p) {
    return phase[static_cast<std::size_t>(p)].nanos;
  };
  checks.expect((sum.shard_steps > 0 ? sum.shard_max_busy_ns : sum.select_ns) <=
                    lap_ns(core::StepPhase::kSelection),
                "protocol wrapper time fits in the selection phase");
  checks.expect(sum.schedule_ns <= lap_ns(core::StepPhase::kScheduling),
                "scheduler wrapper time fits in the scheduling phase");
  checks.expect(sum.loss_mark_ns <= lap_ns(core::StepPhase::kLossApply),
                "loss wrapper time fits in the loss-apply phase");
  checks.expect(sum.arrival_ns.load() + sum.begin_ns + sum.admit_ns <=
                    lap_ns(core::StepPhase::kInjection),
                "arrival and admission wrapper time fits in the injection "
                "phase");
  checks.expect(sum.sink_ns + prof_wall <= tt.step_ns,
                "sink wrapper time fits in the unprofiled step epilogue");
  check_shard_equivalence(checks, plan, args, dir, first_steps,
                          first_fingerprint);

  const double steps = static_cast<double>(tt.steps);
  const auto per_step_us = [&](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-3 / steps;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const std::uint64_t selection_ns = lap_ns(core::StepPhase::kSelection);
  const bool sharded = sum.shard_steps > 0;
  const double nodes =
      static_cast<double>(traced.front()->sim().network().node_count());
  // Bytes selection touches, from array sizes: every node's queue entry;
  // two CSR offsets per node holding packets; per scanned link the
  // incidence entry, its mask byte and the neighbour's declared queue; one
  // Transmission per proposal.
  const double selection_bytes =
      nodes * sizeof(lgg::PacketCount) +
      ratio(static_cast<double>(sum.active_nodes), steps) * 2 *
          sizeof(std::size_t) +
      ratio(static_cast<double>(sum.links_scanned), steps) *
          (sizeof(lgg::graph::IncidentLink) + 1 + sizeof(lgg::PacketCount)) +
      ratio(static_cast<double>(sum.tx), steps) * sizeof(core::Transmission);
  const bool soak = plan.id == WorkloadId::kSoakObserved;

  std::vector<Metric> metrics = {
      {"core.selection.us_per_step", per_step_us(selection_ns), "us"},
      {"core.selection.tx_per_step",
       ratio(static_cast<double>(sum.tx), steps), "count"},
      {"core.selection.links_scanned_per_step",
       ratio(static_cast<double>(sum.links_scanned), steps), "count"},
      {"core.selection.ns_per_link",
       ratio(static_cast<double>(selection_ns),
             static_cast<double>(sum.links_scanned)),
       "ns"},
      {"core.selection.bytes_per_step_computed", selection_bytes, "B"},
      {"core.conflict.us_per_step", per_step_us(lap_ns(core::StepPhase::kConflict)),
       "us"},
      {"core.conflict.dropped_ratio",
       ratio(static_cast<double>(tt.conflicted),
             static_cast<double>(tt.proposed)),
       "ratio"},
      {"core.loss_apply.us_per_step",
       per_step_us(lap_ns(core::StepPhase::kLossApply)), "us"},
      {"core.scheduling.us_per_step",
       per_step_us(lap_ns(core::StepPhase::kScheduling)), "us"},
      {"core.injection.us_per_step",
       per_step_us(lap_ns(core::StepPhase::kInjection)), "us"},
      {"core.declaration.us_per_step",
       per_step_us(lap_ns(core::StepPhase::kDeclaration)), "us"},
      {"core.extraction.us_per_step",
       per_step_us(lap_ns(core::StepPhase::kExtraction)), "us"},
      {"core.dynamics.us_per_step",
       per_step_us(lap_ns(core::StepPhase::kDynamics)), "us"},
      {"core.step.unprofiled_us_per_step",
       (static_cast<double>(tt.step_ns) - static_cast<double>(prof_wall)) *
           1e-3 / steps,
       "us"},
      {"core.shard.selection_imbalance",
       sharded ? ratio(static_cast<double>(sum.shard_max_busy_ns),
                       static_cast<double>(sum.shard_mean_busy_ns))
               : 0.0,
       "ratio"},
      {"core.shard.fanout_wait_us_per_step",
       sharded ? (static_cast<double>(selection_ns) -
                  static_cast<double>(sum.shard_max_busy_ns)) *
                     1e-3 / steps
               : 0.0,
       "us"},
      {"core.shard.cpu_wall_ratio",
       sharded ? ratio(static_cast<double>(prof_cpu),
                       static_cast<double>(prof_wall))
               : 0.0,
       "ratio"},
      {"graph.partition_ms", median(partition_ms), "ms"},
      {"graph.cut_edges", median(cut_edges), "count"},
      {"graph.build_ms", median(build_ms), "ms"},
      {"flow.feasibility_ms", median(feasibility_ms), "ms"},
      {"control.begin_step_us_per_step", per_step_us(sum.begin_ns), "us"},
      {"control.cert_patch_us_per_event",
       ratio(static_cast<double>(sum.patch_ns) * 1e-3,
             static_cast<double>(sum.patch_events)),
       "us"},
      {"control.admit_ns_per_call",
       ratio(static_cast<double>(sum.admit_ns),
             static_cast<double>(sum.admit_calls)),
       "ns"},
      {"control.shed_ratio",
       ratio(static_cast<double>(sum.offered - sum.admitted),
             static_cast<double>(sum.offered)),
       "ratio"},
      {"control.cert_patches", static_cast<double>(patches - patches_before),
       "count"},
      {"control.cert_recomputes",
       static_cast<double>(recomputes - recomputes_before), "count"},
      {"control.setup_ms", median(governor_ms), "ms"},
      {"traffic.arrival_us_per_step", per_step_us(sum.arrival_ns.load()),
       "us"},
      {"traffic.injection_visits_per_step",
       ratio(static_cast<double>(tt.injection_visits), steps), "count"},
      {"obs.sink_us_per_step", per_step_us(sum.sink_ns), "us"},
      {"obs.sink_bytes_per_step",
       ratio(static_cast<double>(sum.sink_bytes), steps), "B"},
      {"obs.snapshot_step_us_p50",
       soak ? require_percentile(tt.snapshot_step_us, 0.50,
                                 "obs.snapshot_step_us_p50")
            : 0.0,
       "us"},
      {"core.checkpoint.bytes", median(ckpt_bytes), "B"},
      {"core.checkpoint.save_MBps", median(save_mbps), "MB/s"},
      {"core.checkpoint.restore_MBps", median(restore_mbps), "MB/s"},
      {"core.ckpt_chain.append_ms", median(tt.append_ms), "ms"},
      {"obs.trace_overhead", ratio(median(traced_us), median(plain_us)),
       "ratio"},
  };
  print_result(args, *traced.front(), checks, metrics,
               {{"traced_steps", std::to_string(tt.steps)},
                {"plain_steps", std::to_string(plain_us.size())}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "lgg_perfbench: refusing to run a build without NDEBUG: "
               "debug builds run the per-step audit_counters full scan and "
               "measure a different program\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "lgg_perfbench: refusing to run a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return args.trace ? perfbench::run_traced(args)
                      : perfbench::run_plain(args);
  } catch (const std::exception& e) {
    std::cerr << "lgg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
