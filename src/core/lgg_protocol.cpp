#include "core/lgg_protocol.hpp"

#include <algorithm>

#include "core/profiler.hpp"
#include "obs/registry.hpp"

namespace lgg::core {

namespace {

/// list(u)'s order: declared queue, then neighbour id, then edge id.  A
/// node's links have distinct edge ids, so this is a strict total order
/// and any sort of the candidates yields the one full-sort order.
constexpr auto by_id = [](const LggCandidate& a, const LggCandidate& b) {
  if (a.declared != b.declared) return a.declared < b.declared;
  if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
  return a.edge < b.edge;
};

constexpr auto by_declared = [](const LggCandidate& a,
                                const LggCandidate& b) {
  return a.declared < b.declared;
};

/// Stable, allocation-free, and faster than std::sort on the short lists
/// most nodes have.
template <typename Less>
void insertion_sort(LggCandidate* c, std::size_t k, Less less) {
  for (std::size_t i = 1; i < k; ++i) {
    const LggCandidate x = c[i];
    std::size_t j = i;
    for (; j > 0 && less(x, c[j - 1]); --j) c[j] = c[j - 1];
    c[j] = x;
  }
}

/// Writes a candidate for every link into `c` and advances past the
/// active ones that pass `keep_all || declared < qu`, without branching on
/// the data.  A null `active` mask means every link is active.  Returns the
/// number kept.
std::size_t gather(std::span<const graph::IncidentLink> links,
                   std::span<const PacketCount> declared, PacketCount qu,
                   bool keep_all, const graph::EdgeMask* active,
                   LggCandidate* c) {
  std::size_t k = 0;
  for (const graph::IncidentLink& link : links) {
    const PacketCount d = declared[static_cast<std::size_t>(link.neighbor)];
    c[k] = LggCandidate{d, link.neighbor, link.edge};
    const bool up = active == nullptr || active->active(link.edge);
    k += static_cast<std::size_t>((keep_all | (d < qu)) & up);
  }
  return k;
}

}  // namespace

void select_lgg_links(const StepView& view, NodeId u,
                      std::span<const PacketCount> declared,
                      TieBreak tie_break, Rng* rng,
                      std::vector<LggCandidate>& scratch,
                      std::vector<Transmission>& out) {
  const PacketCount qu = view.queue[static_cast<std::size_t>(u)];
  if (qu <= 0) return;
  const std::span<const graph::IncidentLink> links =
      view.incidence->incident(u);
  if (scratch.size() < links.size()) scratch.resize(links.size());
  LggCandidate* const c = scratch.data();

  // The shuffle permutes u's whole active list, as in the paper's list(u),
  // so it gathers every active link and filters after shuffling.
  const bool shuffle = tie_break == TieBreak::kRandomShuffle;
  std::size_t k = gather(links, declared, qu, shuffle, view.active, c);
  if (shuffle) {
    std::shuffle(c, c + k, rng->engine());
    const auto uphill = [qu](const LggCandidate& x) {
      return x.declared >= qu;
    };
    k = static_cast<std::size_t>(std::remove_if(c, c + k, uphill) - c);
  }

  // Every candidate is down-gradient: u sends on the min(q(u), k) first.
  constexpr std::size_t kInsertionSortMax = 16;
  const auto budget = static_cast<std::size_t>(
      std::min(qu, static_cast<PacketCount>(k)));
  if (k <= kInsertionSortMax) {
    if (shuffle) {
      insertion_sort(c, k, by_declared);
    } else {
      insertion_sort(c, k, by_id);
    }
  } else if (shuffle) {
    std::stable_sort(c, c + k, by_declared);
  } else {
    std::partial_sort(c, c + budget, c + k, by_id);
  }
  for (std::size_t i = 0; i < budget; ++i) {
    out.push_back(Transmission{c[i].edge, u, c[i].neighbor});
  }
}

std::uint64_t LggProtocol::select_node(const StepView& view, NodeId u,
                                       std::vector<LggCandidate>& scratch,
                                       std::vector<Transmission>& out) const {
  if (view.queue[static_cast<std::size_t>(u)] <= 0) return 0;
  if (tie_break_ == TieBreak::kRandomShuffle) {
    // The shuffle draws from u's addressed stream, never a shared one, so
    // the tie-break is identical whether u is visited serially or from a
    // shard.
    Rng rng = draw_rng(view.draw_seed, static_cast<std::uint64_t>(view.t),
                       static_cast<std::uint64_t>(StepPhase::kSelection),
                       static_cast<std::uint64_t>(u));
    select_lgg_links(view, u, view.declared, tie_break_, &rng, scratch, out);
  } else {
    select_lgg_links(view, u, view.declared, tie_break_, nullptr, scratch,
                     out);
  }
  return 1;
}

void LggProtocol::select_transmissions(const StepView& view, Rng&,
                                       std::vector<Transmission>& out) {
  const NodeId n = view.net->node_count();
  std::uint64_t active = 0;
  for (NodeId u = 0; u < n; ++u) {
    active += select_node(view, u, scratch_, out);
  }
  if (active_nodes_ != nullptr) active_nodes_->add(active);
}

std::uint64_t LggProtocol::select_for_nodes(const StepView& view,
                                            std::span<const NodeId> nodes,
                                            std::vector<Transmission>& out) {
  std::vector<LggCandidate> scratch;
  std::uint64_t active = 0;
  for (const NodeId u : nodes) {
    active += select_node(view, u, scratch, out);
  }
  return active;
}

void LggProtocol::note_selection_work(std::uint64_t active) {
  if (active_nodes_ != nullptr) active_nodes_->add(active);
}

void LggProtocol::register_metrics(obs::MetricRegistry& registry) {
  active_nodes_ = &registry.counter("protocol.active_nodes");
}

}  // namespace lgg::core
