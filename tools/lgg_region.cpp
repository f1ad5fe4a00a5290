// lgg_region — bisect the empirical stability region of an S-D-network.
//
// Reads an sdnet file (or stdin), sweeps the arrival scaling via
// core::critical_load, and prints λ* for the chosen protocol, optionally
// under node-exclusive interference.
//
// Usage:
//   lgg_region [--protocol NAME] [--steps N] [--replicates K]
//              [--tolerance X] [--matching] [network.sdnet]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "baselines/protocol_registry.hpp"
#include "common/spec_parse.hpp"
#include "core/region.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "core/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace lgg;
  using common::parse_number;
  std::string protocol = "lgg";
  TimeStep steps = 3000;
  core::RegionOptions region;
  region.replicates = 3;
  bool matching = false;
  std::string input_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&](const char* what) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", what);
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--protocol") {
        protocol = next("--protocol");
      } else if (arg == "--steps") {
        steps = parse_number<TimeStep>("--steps", next("--steps"));
      } else if (arg == "--replicates") {
        region.replicates = parse_number<int>("--replicates",
                                              next("--replicates"));
      } else if (arg == "--tolerance") {
        region.tolerance = parse_number<double>("--tolerance",
                                                next("--tolerance"));
      } else if (arg == "--matching") {
        matching = true;
      } else if (arg == "--help" || arg == "-h") {
        std::fprintf(stderr,
                     "usage: %s [--protocol NAME] [--steps N] "
                     "[--replicates K] [--tolerance X] [--matching] "
                     "[network.sdnet]\n",
                     argv[0]);
        return 2;
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        return 2;
      } else {
        input_path = arg;
      }
    }

    const core::SdNetwork net = [&] {
      if (input_path.empty()) {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        return core::network_from_string(buffer.str());
      }
      std::ifstream file(input_path);
      if (!file) throw std::runtime_error("cannot open " + input_path);
      return core::read_network(file);
    }();
    const auto report = core::analyze(net);
    std::printf("%s\n", core::describe(net, report).c_str());

    const core::LoadProbe probe = [&](double load, std::uint64_t seed) {
      core::SimulatorOptions options;
      options.seed = seed;
      core::Simulator sim(net, options, baselines::make_protocol(protocol));
      sim.set_arrival(std::make_unique<core::ScaledArrival>(load));
      if (matching) {
        sim.set_scheduler(std::make_unique<core::GreedyMatchingScheduler>());
      }
      core::MetricsRecorder recorder;
      sim.run(steps, &recorder);
      return core::assess_stability(recorder.network_state()).verdict;
    };
    const double lambda = core::critical_load(probe, region);
    std::printf(
        "critical load lambda* = %.4f  (protocol=%s%s, horizon=%lld, "
        "%d replicates, tolerance %.4f)\n",
        lambda, protocol.c_str(), matching ? "+matching" : "",
        static_cast<long long>(steps), region.replicates, region.tolerance);
    std::printf("declared arrival rate x lambda* = %.2f packets/step\n",
                lambda * static_cast<double>(net.arrival_rate()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
