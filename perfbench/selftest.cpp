// Self-test of the benchmark harness.
//
//   perfbench_selftest WORK_DIR      (or: python3 perfbench/run.py --selftest)
//
// Covers what the benchmark's numbers rest on: the traced
// wrappers cannot perturb a run (traced and plain fingerprints agree on
// small instances of all four workloads, and the shard engine agrees with
// the serial one), the percentile helper refuses to report a percentile
// with fewer than kMinTail samples beyond it, and the fast-state block
// filter keeps exactly the blocks within its tolerance.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Instance;
using perfbench::InstanceOptions;
using perfbench::Scale;
using perfbench::WorkloadId;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void percentile_helper() {
  using perfbench::percentile;
  expect(percentile(one_to(1000), 0.99) == 990.0,
         "p99 of 1..1000 is 990 (10 samples beyond)");
  expect(!percentile(one_to(999), 0.99).has_value(),
         "p99 of 999 samples is refused (9 beyond)");
  expect(percentile(one_to(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile(one_to(19), 0.5).has_value(),
         "p50 of 19 samples is refused");
  expect(!percentile({}, 0.5).has_value(), "no samples, no percentile");
  bool threw = false;
  try {
    (void)perfbench::require_percentile(one_to(500), 0.99, "p99");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "require_percentile throws when the tail is too thin");
  expect(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5,
         "median of an even count averages the middle pair");

  // Three windows of 1000; a burst of slow samples in the second one only.
  std::vector<double> run;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      run.push_back(w == 1 && i > 950 ? 5000.0 : static_cast<double>(i));
    }
  }
  expect(perfbench::windowed_percentile(run, 0.99, 1000, "p99") == 990.0,
         "windowed p99 reads the typical window, not the burst");
  expect(perfbench::windowed_percentile(std::vector<double>(run.begin(),
                                                            run.begin() + 1500),
                                        0.99, 1000, "p99") > 0.0,
         "a short remainder joins the last full window");
}

void fast_state_blocks() {
  // Ten-step blocks: eight in the fast state (1.00-1.08 s per step), two
  // in the slow one (1.5 s per step).
  std::vector<perfbench::TimedBlock> blocks;
  for (const double per_step : {1.5, 1.0, 1.08, 1.02, 1.5, 1.0, 1.04, 1.01,
                                1.06, 1.03}) {
    blocks.push_back({0, 10.0 * per_step, std::vector<double>(10, per_step)});
  }
  const std::size_t fast = perfbench::sort_and_count_fast(blocks, 1.1);
  expect(fast == 8, "slow-state blocks are not counted as fast");
  expect(blocks.front().per_step_s() == 1.0 &&
             blocks.back().per_step_s() == 1.5,
         "blocks are sorted fastest first");
}

void advance(Instance& inst, lgg::TimeStep steps) {
  while (inst.sim().now() < steps) inst.step();
}

void traced_equals_plain(WorkloadId id, const fs::path& work) {
  const perfbench::WorkloadPlan plan = perfbench::plan_for(id, Scale::kSmall);
  const std::string name(perfbench::workload_name(id));
  const std::uint64_t seed = 7;
  const lgg::TimeStep steps = plan.warmup + 3 * plan.block;
  const auto dir = [&](const std::string& tag) {
    const fs::path p = work / (name + "-" + tag);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
  };

  Instance plain(plan, seed, 1, InstanceOptions{}, dir("plain"));
  InstanceOptions traced_options;
  traced_options.traced = true;
  Instance traced(plan, seed, 1, traced_options, dir("traced"));
  advance(plain, steps);
  advance(traced, steps);
  expect(perfbench::fingerprint(plain.sim()) ==
             perfbench::fingerprint(traced.sim()),
         name + ": traced fingerprint equals plain");
  expect(plain.sim().conserves_packets() && traced.sim().conserves_packets(),
         name + ": packets conserved");
  expect(traced.layers()->tx > 0 && traced.profiler()->steps() ==
                                        static_cast<std::uint64_t>(steps),
         name + ": wrappers and profiler saw every step");

  if (plan.shards > 0) {
    InstanceOptions serial;
    serial.force_serial = true;
    Instance reference(plan, seed, 1, serial, dir("serial"));
    advance(reference, steps);
    expect(perfbench::fingerprint(reference.sim()) ==
               perfbench::fingerprint(plain.sim()),
           name + ": shard engine equals the serial engine");
    expect(traced.layers()->shard_steps == static_cast<std::uint64_t>(steps),
           name + ": every sharded step folded its shard slots");
  }
  if (plan.append_every > 0) {
    expect(plain.jsonl_matches_cadence() && traced.jsonl_matches_cadence(),
           name + ": JSONL line count matches the snapshot cadence");
    expect(perfbench::chain_round_trips(traced, seed, 1, dir("verify")),
           name + ": newest chain generation round-trips byte-identically");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest WORK_DIR\n";
    return 2;
  }
  const fs::path work = fs::path(argv[1]) / "selftest";
  percentile_helper();
  fast_state_blocks();
  try {
    for (const WorkloadId id :
         {WorkloadId::kSparse1024, WorkloadId::kGrid256,
          WorkloadId::kGrid256K4, WorkloadId::kSoakObserved}) {
      traced_equals_plain(id, work);
    }
  } catch (const std::exception& e) {
    expect(false, std::string("unexpected exception: ") + e.what());
  }
  std::error_code ignored;
  fs::remove_all(work, ignored);
  std::cout << (failures == 0 ? "all checks passed" : "checks FAILED")
            << "\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
