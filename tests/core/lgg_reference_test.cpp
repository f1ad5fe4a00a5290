// Differential test of LGG selection against a reference transcription of
// Algorithm 1's list(u).  The reference is written from the paper, not
// from the engine: copy every active link of u, order the whole list by
// (declared queue, neighbour id, edge id) — or shuffle it from u's
// addressed stream and stable-sort by declared queue — then walk it,
// sending on each link whose far end declares less than q(u) until q(u)
// packets are committed.  Both entry points of LggProtocol
// (select_transmissions and select_for_nodes over a randomly split node
// range) must emit exactly the reference's transmissions, in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/lgg_protocol.hpp"
#include "core/profiler.hpp"

namespace lgg::core {
namespace {

/// list(u) of Algorithm 1, scanned with u's budget: the naive form.
std::vector<Transmission> reference_list(const StepView& view, NodeId u,
                                         TieBreak tie_break) {
  const auto at = [](std::span<const PacketCount> q, NodeId v) {
    return q[static_cast<std::size_t>(v)];
  };
  std::vector<Transmission> sent;
  const PacketCount qu = at(view.queue, u);
  if (qu <= 0) return sent;
  std::vector<graph::IncidentLink> links;
  for (const graph::IncidentLink& link : view.incidence->incident(u)) {
    if (view.active->active(link.edge)) links.push_back(link);
  }
  const auto declared = [&](const graph::IncidentLink& link) {
    return at(view.declared, link.neighbor);
  };
  if (tie_break == TieBreak::kRandomShuffle) {
    Rng rng = draw_rng(view.draw_seed, static_cast<std::uint64_t>(view.t),
                       static_cast<std::uint64_t>(StepPhase::kSelection),
                       static_cast<std::uint64_t>(u));
    std::shuffle(links.begin(), links.end(), rng.engine());
    std::stable_sort(links.begin(), links.end(),
                     [&](const auto& a, const auto& b) {
                       return declared(a) < declared(b);
                     });
  } else {
    std::sort(links.begin(), links.end(), [&](const auto& a, const auto& b) {
      return std::tuple(declared(a), a.neighbor, a.edge) <
             std::tuple(declared(b), b.neighbor, b.edge);
    });
  }
  PacketCount budget = qu;
  for (const graph::IncidentLink& link : links) {
    if (budget == 0) break;
    if (qu > declared(link)) {
      sent.push_back(Transmission{link.edge, u, link.neighbor});
      --budget;
    }
  }
  return sent;
}

std::size_t eligible_links(const StepView& view, NodeId u) {
  std::size_t eligible = 0;
  for (const graph::IncidentLink& link : view.incidence->incident(u)) {
    eligible += view.active->active(link.edge) &&
                view.declared[static_cast<std::size_t>(link.neighbor)] <
                    view.queue[static_cast<std::size_t>(u)];
  }
  return eligible;
}

/// One random selection instance.  Node 0 is a hub joined to random
/// partners by up to 64 links (parallel edges included); the rest of the
/// graph is a random multigraph.  Edge masks, queues and declarations are
/// drawn independently, with a narrow declaration range on some instances
/// so that ties are common.
struct Instance {
  explicit Instance(Rng& rng) {
    const auto n = static_cast<NodeId>(rng.uniform_int(2, 40));
    graph::Multigraph g(n);
    const std::int64_t hub_degree = rng.uniform_int(0, 64);
    for (std::int64_t i = 0; i < hub_degree; ++i) {
      g.add_edge(0, static_cast<NodeId>(rng.uniform_int(1, n - 1)));
    }
    const std::int64_t extra = rng.uniform_int(0, 3 * n);
    for (std::int64_t i = 0; i < extra; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (a != b) g.add_edge(a, b);
    }
    net = SdNetwork(std::move(g));
    incidence = graph::CsrIncidence(net.topology());
    mask = graph::EdgeMask(net.topology().edge_count());
    const double p_off = rng.uniform_int(0, 2) * 0.3;
    for (EdgeId e = 0; e < mask.size(); ++e) {
      if (rng.bernoulli(p_off)) mask.set_active(e, false);
    }
    const std::int64_t declared_max = rng.uniform_int(0, 1) ? 3 : 70;
    for (NodeId v = 0; v < n; ++v) {
      // q(u) from 0 to a few above the degree, some nodes idle.
      const std::int64_t degree = net.topology().degree(v);
      queue.push_back(rng.uniform_int(0, 3) == 0
                          ? 0
                          : rng.uniform_int(0, degree + 3));
      const bool truthful = rng.uniform_int(0, 1) == 1;
      declared.push_back(truthful ? queue.back()
                                  : rng.uniform_int(0, declared_max));
    }
    t = static_cast<TimeStep>(rng.uniform_int(0, 1000));
    draw_seed = rng();
  }

  [[nodiscard]] StepView view() const {
    StepView v{&net, &incidence, &mask, queue, declared, t, 0};
    v.draw_seed = draw_seed;
    return v;
  }

  SdNetwork net;
  graph::CsrIncidence incidence;
  graph::EdgeMask mask;
  std::vector<PacketCount> queue;
  std::vector<PacketCount> declared;
  TimeStep t = 0;
  std::uint64_t draw_seed = 0;
};

TEST(LggReference, KernelMatchesNaiveListOnRandomInstances) {
  Rng rng(0x2E7);
  // Nodes whose budget cut a list of more than 16 eligible links.
  int long_cut_lists = 0;
  for (int instance = 0; instance < 240; ++instance) {
    const Instance in(rng);
    const StepView view = in.view();
    const NodeId n = in.net.node_count();
    for (const TieBreak tie_break :
         {TieBreak::kById, TieBreak::kRandomShuffle}) {
      SCOPED_TRACE("instance " + std::to_string(instance) + " tie-break " +
                   std::to_string(static_cast<int>(tie_break)));
      std::vector<Transmission> want;
      std::uint64_t want_active = 0;
      for (NodeId u = 0; u < n; ++u) {
        const std::vector<Transmission> list =
            reference_list(view, u, tie_break);
        const PacketCount qu = in.queue[static_cast<std::size_t>(u)];
        if (qu > 0 && static_cast<PacketCount>(list.size()) == qu &&
            eligible_links(view, u) > std::max<std::size_t>(16, list.size())) {
          ++long_cut_lists;
        }
        want.insert(want.end(), list.begin(), list.end());
        want_active += qu > 0 ? 1 : 0;
      }

      LggProtocol serial(tie_break);
      Rng unused(1);
      std::vector<Transmission> got;
      serial.select_transmissions(view, unused, got);
      ASSERT_EQ(got, want);

      // The same selection over a node range cut at random points.
      LggProtocol sharded(tie_break);
      std::vector<NodeId> nodes(static_cast<std::size_t>(n));
      for (NodeId u = 0; u < n; ++u) nodes[static_cast<std::size_t>(u)] = u;
      std::vector<Transmission> pieces;
      std::uint64_t active = 0;
      std::size_t lo = 0;
      while (lo < nodes.size()) {
        const auto hi = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(lo) + 1,
            static_cast<std::int64_t>(nodes.size())));
        active += sharded.select_for_nodes(
            view, std::span<const NodeId>(nodes).subspan(lo, hi - lo),
            pieces);
        lo = hi;
      }
      ASSERT_EQ(pieces, want);
      EXPECT_EQ(active, want_active);
    }
  }
  EXPECT_GT(long_cut_lists, 0);
}

}  // namespace
}  // namespace lgg::core
