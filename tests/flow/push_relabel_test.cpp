// Push-relabel–specific stress: structured instances that exercise the
// gap heuristic, deep relabeling chains, and the run-to-completion (valid
// flow, not just preflow) guarantee — for both selection rules.
#include "flow/push_relabel.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flow/max_flow.hpp"

namespace lgg::flow {
namespace {

class PushRelabelRules : public ::testing::TestWithParam<PushRelabelRule> {};

TEST_P(PushRelabelRules, LongChainForcesDeepRelabels) {
  // A 64-node chain: every interior node must be relabelled many times to
  // push its unit through.
  const NodeId n = 64;
  FlowNetwork net(n);
  for (NodeId v = 0; v + 1 < n; ++v) net.add_arc(v, v + 1, 2);
  EXPECT_EQ(push_relabel_max_flow(net, 0, n - 1, GetParam()), 2);
  EXPECT_TRUE(flow_is_valid(net, 0, n - 1));
}

TEST_P(PushRelabelRules, DeadEndBranchTriggersGapHeuristic) {
  // Flow must be retracted from a capacious dead-end branch: nodes on the
  // branch get lifted past n, exercising the gap/retreat path.
  FlowNetwork net(6);
  net.add_arc(0, 1, 10);   // into the trap
  net.add_arc(1, 2, 10);   // trap continues
  net.add_arc(2, 3, 10);   // trap dead-ends at 3 (no arc to sink)
  net.add_arc(1, 4, 1);    // thin real path
  net.add_arc(4, 5, 1);
  EXPECT_EQ(push_relabel_max_flow(net, 0, 5, GetParam()), 1);
  EXPECT_TRUE(flow_is_valid(net, 0, 5));
  // All excess returned: node 2 and 3 carry no stranded packets.
  EXPECT_EQ(net.excess_at(2), 0);
  EXPECT_EQ(net.excess_at(3), 0);
}

TEST_P(PushRelabelRules, BipartiteUnitMatchingNetwork) {
  // Classic unit-capacity bipartite matching shape, 2x8+2 nodes.
  const int k = 8;
  FlowNetwork net(2 * k + 2);
  const NodeId s = 2 * k;
  const NodeId t = 2 * k + 1;
  Rng rng(5);
  for (int i = 0; i < k; ++i) {
    net.add_arc(s, static_cast<NodeId>(i), 1);
    net.add_arc(static_cast<NodeId>(k + i), t, 1);
  }
  // Perfect matching exists: i -> k+i plus random chords.
  for (int i = 0; i < k; ++i) {
    net.add_arc(static_cast<NodeId>(i), static_cast<NodeId>(k + i), 1);
    net.add_arc(static_cast<NodeId>(i),
                static_cast<NodeId>(k + rng.uniform_int(0, k - 1)), 1);
  }
  EXPECT_EQ(push_relabel_max_flow(net, s, t, GetParam()), k);
  EXPECT_TRUE(flow_is_valid(net, s, t));
}

TEST_P(PushRelabelRules, HugeCapacitiesDoNotOverflow) {
  FlowNetwork net(3);
  const Cap big = Cap{1} << 40;
  net.add_arc(0, 1, big);
  net.add_arc(1, 2, big / 2);
  EXPECT_EQ(push_relabel_max_flow(net, 0, 2, GetParam()), big / 2);
}

TEST_P(PushRelabelRules, AgreesWithDinicOnDenseRandomInstances) {
  Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId n = 40;
    FlowNetwork a(n);
    FlowNetwork b(n);
    for (int i = 0; i < 400; ++i) {
      const auto u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      while (v == u) v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const Cap cap = rng.uniform_int(0, 9);
      a.add_arc(u, v, cap);
      b.add_arc(u, v, cap);
    }
    const Cap pr = push_relabel_max_flow(a, 0, n - 1, GetParam());
    const Cap di = solve_max_flow(b, 0, n - 1, FlowAlgorithm::kDinic);
    EXPECT_EQ(pr, di) << "trial " << trial;
    EXPECT_TRUE(flow_is_valid(a, 0, n - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, PushRelabelRules,
    ::testing::Values(PushRelabelRule::kFifo, PushRelabelRule::kHighestLabel),
    [](const ::testing::TestParamInfo<PushRelabelRule>& param_info) {
      return param_info.param == PushRelabelRule::kFifo ? "fifo" : "highest";
    });

}  // namespace
}  // namespace lgg::flow
