// lgg_chaos — chaos-soak driver: hunt for invariant violations, minimize
// them, replay the artifacts.  (docs/chaos.md is the full guide.)
//
// Usage:
//   lgg_chaos soak [options]
//     --scenarios N      generated scenarios to run        (default 20)
//     --seed S           generator master seed             (default 1)
//     --from FILE        run this scenario file instead of generating
//                        (repeatable; disables generation)
//     --out DIR          artifact directory                (default chaos-out)
//     --deadline-ms N    per-scenario watchdog             (default 20000)
//     --max-attempts N   attempts before quarantine        (default 3)
//     --backoff-ms N     initial retry backoff             (default 50)
//     --time-budget-ms N stop starting new scenarios after this long
//     --shrink           auto-minimize every finding in place
//   lgg_chaos shrink FILE [--out DIR] [--probe-deadline-ms N]
//     minimizes a violating scenario into DIR/minimized.scenario (+
//     original.scenario, expected.outcome)
//   lgg_chaos replay FILE [--expect OUTCOME_FILE]
//     reruns a scenario artifact and reports the verdict; with --expect,
//     also checks the finding matches the recorded outcome
//
// Exit codes (common/exit_codes.hpp): 0 ok / 1 diverged / 2 usage error /
// 3 invariant violation (soak: >= 1 finding) / 4 timeout, watchdog kill,
// or SIGINT/SIGTERM interruption.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "chaos/executor.hpp"
#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "chaos/shrink.hpp"
#include "common/exit_codes.hpp"
#include "common/spec_parse.hpp"

namespace {

using lgg::common::parse_number;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s soak [--scenarios N] [--seed S] [--from FILE]... "
      "[--out DIR] [--deadline-ms N] [--max-attempts N] [--backoff-ms N] "
      "[--time-budget-ms N] [--shrink] [--shards K] [--churn-bias] "
      "[--adversary-bias] [--crash-bias]\n"
      "       %s shrink FILE [--out DIR] [--probe-deadline-ms N]\n"
      "       %s replay FILE [--expect OUTCOME_FILE]\n",
      argv0, argv0, argv0);
  std::exit(lgg::kExitUsage);
}

void print_outcome(const lgg::chaos::ScenarioOutcome& outcome) {
  using lgg::chaos::Verdict;
  std::printf("verdict: %s after %lld steps (P_t = %.6g, stored = %lld)\n",
              std::string(to_string(outcome.verdict)).c_str(),
              static_cast<long long>(outcome.steps_done),
              outcome.final_state,
              static_cast<long long>(outcome.final_packets));
  if (outcome.recoveries > 0) {
    std::printf("recoveries: %lld\n",
                static_cast<long long>(outcome.recoveries));
  }
  if (outcome.violation) {
    std::printf("oracle=%s step=%lld: %s\n",
                lgg::chaos::oracles_to_string(outcome.violation->oracle)
                    .c_str(),
                static_cast<long long>(outcome.violation->step),
                outcome.violation->message.c_str());
  }
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "error: %s\n", outcome.error.c_str());
  }
}

int cmd_soak(int argc, char** argv) {
  using namespace lgg;
  std::int64_t scenarios = 20;
  std::uint64_t seed = 1;
  std::vector<std::string> from;
  std::int64_t time_budget_ms = 0;
  std::uint32_t shards = 0;
  bool churn_bias = false;
  bool adversary_bias = false;
  bool crash_bias = false;
  chaos::ExecutorOptions options;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--scenarios") {
      scenarios =
          parse_number<std::int64_t>("--scenarios", next("--scenarios"));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(
          parse_number<std::int64_t>("--seed", next("--seed")));
    } else if (arg == "--from") {
      from.emplace_back(next("--from"));
    } else if (arg == "--out") {
      options.out_dir = next("--out");
    } else if (arg == "--deadline-ms") {
      options.deadline_ms =
          parse_number<std::int64_t>("--deadline-ms", next("--deadline-ms"));
    } else if (arg == "--max-attempts") {
      options.max_attempts =
          parse_number<int>("--max-attempts", next("--max-attempts"));
    } else if (arg == "--backoff-ms") {
      options.backoff_initial_ms =
          parse_number<std::int64_t>("--backoff-ms", next("--backoff-ms"));
    } else if (arg == "--time-budget-ms") {
      time_budget_ms = parse_number<std::int64_t>("--time-budget-ms",
                                                  next("--time-budget-ms"));
    } else if (arg == "--shrink") {
      options.shrink_findings = true;
    } else if (arg == "--shards") {
      // Run every scenario on the shard engine (K shards).  Trajectories
      // are bitwise identical to serial, so this soaks the engine's
      // concurrency under the same oracles.
      shards = parse_number<std::uint32_t>("--shards", next("--shards"));
      if (shards == 0) {
        std::fprintf(stderr, "error: --shards wants a positive count\n");
        std::exit(kExitUsage);
      }
    } else if (arg == "--churn-bias") {
      // Generate every scenario with a scripted topology-churn schedule
      // (the mutate-and-heal family) — the nightly churn soak leg.
      churn_bias = true;
    } else if (arg == "--adversary-bias") {
      // Generate every scenario with a (ρ,σ)-bounded adversarial arrival,
      // rho drawn near the stability frontier — the nightly adversarial
      // soak leg.
      adversary_bias = true;
    } else if (arg == "--crash-bias") {
      // Arm the crash_recovery oracle on every generated scenario — the
      // end-of-run failpoint-injected generation-chain drill — for the
      // nightly crash-recovery soak leg.
      crash_bias = true;
    } else {
      std::fprintf(stderr, "unknown soak option %s\n", arg.c_str());
      std::exit(kExitUsage);
    }
  }

  chaos::Executor executor(options);
  chaos::Executor::install_signal_handlers();
  const auto start = std::chrono::steady_clock::now();
  const auto budget_left = [&] {
    if (time_budget_ms <= 0) return true;
    return std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(time_budget_ms);
  };

  if (!from.empty()) {
    for (const std::string& path : from) {
      if (chaos::Executor::stop_requested() || !budget_left()) break;
      chaos::ScenarioConfig config = chaos::read_scenario_file(path);
      if (shards > 0) config.shards = shards;
      const chaos::RunClass result = executor.run_one(config);
      std::printf("%s: %s\n", path.c_str(),
                  std::string(to_string(result)).c_str());
    }
  } else {
    chaos::GeneratorOptions gen_options;
    if (churn_bias) gen_options.p_scheduled_churn = 1.0;
    if (adversary_bias) gen_options.p_adversarial = 1.0;
    if (crash_bias) gen_options.p_crash_recovery = 1.0;
    chaos::ScenarioGenerator generator(seed, gen_options);
    for (std::int64_t i = 0; i < scenarios; ++i) {
      if (chaos::Executor::stop_requested() || !budget_left()) break;
      chaos::ScenarioConfig config = generator.next();
      if (shards > 0) config.shards = shards;
      const chaos::RunClass result = executor.run_one(config);
      std::printf("%s seed=%llu: %s\n", config.label.c_str(),
                  static_cast<unsigned long long>(config.seed),
                  std::string(to_string(result)).c_str());
    }
  }

  executor.write_summary();
  std::printf("%s\n", executor.summary_line().c_str());
  std::printf("artifacts: %s\n", options.out_dir.c_str());
  if (chaos::Executor::stop_requested()) return kExitTimeout;
  if (executor.totals().findings > 0) return kExitViolation;
  return kExitOk;
}

int cmd_shrink(int argc, char** argv) {
  using namespace lgg;
  namespace fs = std::filesystem;
  std::string input;
  std::string out_dir = "chaos-shrink";
  std::int64_t probe_deadline_ms = 5000;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--probe-deadline-ms") {
      probe_deadline_ms = parse_number<std::int64_t>("--probe-deadline-ms",
                                                  next("--probe-deadline-ms"));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown shrink option %s\n", arg.c_str());
      std::exit(kExitUsage);
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "shrink takes one scenario file\n");
      std::exit(kExitUsage);
    }
  }
  if (input.empty()) {
    std::fprintf(stderr, "shrink: missing scenario file\n");
    std::exit(kExitUsage);
  }

  const chaos::ScenarioConfig original = chaos::read_scenario_file(input);
  const chaos::ScenarioOutcome finding =
      chaos::run_scenario(original, probe_deadline_ms);
  if (!chaos::is_finding(original, finding)) {
    std::fprintf(stderr,
                 "error: scenario does not produce a finding (verdict: %s)\n",
                 std::string(to_string(finding.verdict)).c_str());
    print_outcome(finding);
    return kExitUsage;
  }
  const chaos::ShrinkResult result =
      chaos::shrink(original, finding, probe_deadline_ms);

  fs::create_directories(out_dir);
  chaos::write_scenario_file(original,
                             (fs::path(out_dir) / "original.scenario")
                                 .string());
  chaos::write_scenario_file(result.minimized,
                             (fs::path(out_dir) / "minimized.scenario")
                                 .string());
  {
    std::ofstream os(fs::path(out_dir) / "expected.outcome",
                     std::ios::trunc);
    chaos::write_outcome(os, result.outcome);
  }
  std::printf(
      "shrink: nodes %d->%d edges %d->%d faults %zu->%zu horizon "
      "%lld->%lld (probes=%zu rounds=%d)\n",
      result.before.nodes, result.after.nodes, result.before.edges,
      result.after.edges, result.before.fault_events,
      result.after.fault_events,
      static_cast<long long>(result.before.horizon),
      static_cast<long long>(result.after.horizon), result.probes,
      result.rounds);
  print_outcome(result.outcome);
  std::printf("artifacts: %s\n", out_dir.c_str());
  return kExitOk;
}

int cmd_replay(int argc, char** argv) {
  using namespace lgg;
  std::string input;
  std::string expect_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--expect") {
      expect_path = next("--expect");
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown replay option %s\n", arg.c_str());
      std::exit(kExitUsage);
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "replay takes one scenario file\n");
      std::exit(kExitUsage);
    }
  }
  if (input.empty()) {
    std::fprintf(stderr, "replay: missing scenario file\n");
    std::exit(kExitUsage);
  }

  // A missing or malformed expectation is a usage error found before the
  // (possibly long) run, not after it.
  std::optional<chaos::ScenarioOutcome> expected;
  if (!expect_path.empty()) {
    std::ifstream is(expect_path);
    if (!is) {
      std::fprintf(stderr, "error: cannot open %s\n", expect_path.c_str());
      return kExitUsage;
    }
    expected = chaos::read_outcome(is);
  }

  const chaos::ScenarioConfig config = chaos::read_scenario_file(input);
  const chaos::ScenarioOutcome outcome = chaos::run_scenario(config);
  print_outcome(outcome);
  if (expected) {
    const bool matches =
        outcome.verdict == expected->verdict &&
        outcome.violation.has_value() == expected->violation.has_value() &&
        (!outcome.violation ||
         outcome.violation->oracle == expected->violation->oracle);
    if (!matches) {
      std::fprintf(stderr, "replay: finding does NOT match %s\n",
                   expect_path.c_str());
      return kExitUsage;
    }
    std::printf("replay: reproduced the expected finding\n");
  }
  return verdict_exit_code(outcome.verdict);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "soak") return cmd_soak(argc - 2, argv + 2);
    if (command == "shrink") return cmd_shrink(argc - 2, argv + 2);
    if (command == "replay") return cmd_replay(argc - 2, argv + 2);
    if (command == "--help" || command == "-h") usage(argv[0]);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return lgg::kExitUsage;
  }
}
