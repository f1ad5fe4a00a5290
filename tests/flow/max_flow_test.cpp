#include "flow/max_flow.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "flow/min_cut.hpp"

namespace lgg::flow {
namespace {

const FlowAlgorithm kAllAlgorithms[] = {
    FlowAlgorithm::kDinic,
    FlowAlgorithm::kPushRelabelFifo,
    FlowAlgorithm::kPushRelabelHighest,
    FlowAlgorithm::kEdmondsKarp,
};

class MaxFlowAlgo : public ::testing::TestWithParam<FlowAlgorithm> {};

TEST_P(MaxFlowAlgo, SingleArc) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 7);
  EXPECT_EQ(solve_max_flow(net, 0, 1, GetParam()), 7);
  EXPECT_TRUE(flow_is_valid(net, 0, 1));
}

TEST_P(MaxFlowAlgo, SeriesBottleneck) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 5);
  net.add_arc(1, 2, 3);
  EXPECT_EQ(solve_max_flow(net, 0, 2, GetParam()), 3);
  EXPECT_TRUE(flow_is_valid(net, 0, 2));
}

TEST_P(MaxFlowAlgo, ParallelPathsAdd) {
  FlowNetwork net(4);
  net.add_arc(0, 1, 2);
  net.add_arc(1, 3, 2);
  net.add_arc(0, 2, 3);
  net.add_arc(2, 3, 3);
  EXPECT_EQ(solve_max_flow(net, 0, 3, GetParam()), 5);
}

TEST_P(MaxFlowAlgo, ClassicAugmentingCross) {
  // The textbook instance where a naive greedy needs the residual arc.
  FlowNetwork net(4);
  net.add_arc(0, 1, 1);
  net.add_arc(0, 2, 1);
  net.add_arc(1, 2, 1);
  net.add_arc(1, 3, 1);
  net.add_arc(2, 3, 1);
  EXPECT_EQ(solve_max_flow(net, 0, 3, GetParam()), 2);
  EXPECT_TRUE(flow_is_valid(net, 0, 3));
}

TEST_P(MaxFlowAlgo, DisconnectedSinkGivesZero) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 4);
  EXPECT_EQ(solve_max_flow(net, 0, 2, GetParam()), 0);
}

TEST_P(MaxFlowAlgo, ParallelArcsAccumulate) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 1);
  net.add_arc(0, 1, 1);
  net.add_arc(0, 1, 1);
  EXPECT_EQ(solve_max_flow(net, 0, 1, GetParam()), 3);
}

TEST_P(MaxFlowAlgo, ZeroCapacityArcCarriesNothing) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 0);
  EXPECT_EQ(solve_max_flow(net, 0, 1, GetParam()), 0);
}

TEST_P(MaxFlowAlgo, BadTerminalsRejected) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 1);
  EXPECT_THROW(solve_max_flow(net, 0, 0, GetParam()), ContractViolation);
  EXPECT_THROW(solve_max_flow(net, 0, 9, GetParam()), ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, MaxFlowAlgo, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<FlowAlgorithm>& param_info) {
      return std::string(algorithm_name(param_info.param));
    });

/// Random directed networks: all solvers must agree, flows must be valid,
/// and the flow value must equal the min cut of the residual partition.
class MaxFlowCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

FlowNetwork random_network(NodeId n, int arcs, Cap max_cap,
                           std::uint64_t seed) {
  Rng rng(seed);
  FlowNetwork net(n);
  for (int i = 0; i < arcs; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    while (v == u) v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    net.add_arc(u, v, rng.uniform_int(0, max_cap));
  }
  return net;
}

TEST_P(MaxFlowCrossCheck, AllSolversAgreeAndMatchMinCut) {
  const auto [n, arcs, max_cap] = GetParam();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const FlowNetwork base =
        random_network(static_cast<NodeId>(n), arcs, max_cap, seed * 31 + 7);
    const NodeId s = 0;
    const NodeId t = static_cast<NodeId>(n - 1);
    Cap reference = -1;
    for (const FlowAlgorithm algo : kAllAlgorithms) {
      FlowNetwork net = base;
      const Cap value = solve_max_flow(net, s, t, algo);
      EXPECT_TRUE(flow_is_valid(net, s, t))
          << algorithm_name(algo) << " seed=" << seed;
      if (reference < 0) {
        reference = value;
        // Max-flow == min-cut on both canonical cuts.
        const CutSides sides = min_cut_sides(net, s, t);
        EXPECT_EQ(cut_capacity(net, sides.min_side), value);
        EXPECT_EQ(cut_capacity(net, sides.max_side), value);
      } else {
        EXPECT_EQ(value, reference)
            << algorithm_name(algo) << " disagrees, seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, MaxFlowCrossCheck,
    ::testing::Values(std::tuple{6, 12, 4}, std::tuple{10, 30, 1},
                      std::tuple{12, 40, 7}, std::tuple{16, 60, 3},
                      std::tuple{24, 100, 10}, std::tuple{32, 160, 2}));

}  // namespace
}  // namespace lgg::flow
