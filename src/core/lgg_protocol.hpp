// Algorithm 1 of the paper: the Local Greedy Gradient protocol.
//
// At each step, every node u orders its (active) incident links by
// increasing declared queue length of the far endpoint, then sends one
// packet over each link whose far endpoint is strictly lower than u's own
// (true) queue, stopping once q_t(u) packets have been committed — i.e. u
// serves its q_t(u) lowest neighbours first.  The paper notes the tie-break
// among equal neighbours does not affect stability; both deterministic and
// randomized tie-breaks are provided so experiments can confirm it.
//
// Only down-gradient links (declared < q_t(u)) can ever be sent on, and in
// the ordered list they form a prefix, so select_lgg_links orders just
// those, keyed by declarations loaded once per link, and only as far as
// the budget reaches.  The result equals ordering every active link and
// then scanning, element for element.
//
// Selection is local by construction (each node needs only its own queue
// and its neighbours' declarations), and the randomized tie-break draws
// from the node's addressed stream (StepView::draw_seed), so the shard
// engine can select disjoint node ranges concurrently and reproduce the
// serial trajectory bit for bit.
#pragma once

#include "core/protocol.hpp"

namespace lgg::obs {
class Counter;
}  // namespace lgg::obs

namespace lgg::core {

enum class TieBreak {
  kById,           ///< (declared queue, neighbour id, edge id) ascending
  kRandomShuffle,  ///< random order, then stable sort by declared queue
};

/// A link u can send on, with the far end's declaration (its sort key)
/// loaded once.
struct LggCandidate {
  PacketCount declared;
  NodeId neighbor;
  EdgeId edge;
};

/// Appends node u's Algorithm 1 transmissions to `out`, in list(u) order.
/// `declared` holds the neighbour keys (the view's declarations, or an
/// older snapshot of them); u compares them with its true queue.  Under
/// kRandomShuffle, u's whole active link list is shuffled with `*rng`
/// before the filter, so the draws depend only on that list's length;
/// under kById `rng` is unused and may be null.  `scratch` is grown to
/// u's degree and otherwise left to the caller to reuse.
void select_lgg_links(const StepView& view, NodeId u,
                      std::span<const PacketCount> declared,
                      TieBreak tie_break, Rng* rng,
                      std::vector<LggCandidate>& scratch,
                      std::vector<Transmission>& out);

class LggProtocol final : public RoutingProtocol {
 public:
  explicit LggProtocol(TieBreak tie_break = TieBreak::kById)
      : tie_break_(tie_break) {}

  [[nodiscard]] std::string_view name() const override { return "lgg"; }

  void select_transmissions(const StepView& view, Rng& rng,
                            std::vector<Transmission>& out) override;

  [[nodiscard]] bool local_selection() const override { return true; }
  std::uint64_t select_for_nodes(const StepView& view,
                                 std::span<const NodeId> nodes,
                                 std::vector<Transmission>& out) override;
  void note_selection_work(std::uint64_t active) override;

  /// Registers protocol.active_nodes — cumulative count of nodes that held
  /// packets when transmissions were chosen (the per-step work LGG scans).
  void register_metrics(obs::MetricRegistry& registry) override;

 private:
  /// One node's selection into `out` using caller-provided scratch.
  /// Returns 1 when the node was active (held packets), 0 otherwise.
  std::uint64_t select_node(const StepView& view, NodeId u,
                            std::vector<LggCandidate>& scratch,
                            std::vector<Transmission>& out) const;

  TieBreak tie_break_;
  // Candidate scratch, grown to the largest degree seen and reused across
  // steps by the serial path; select_for_nodes uses a call-local vector
  // instead so concurrent shards never share one.
  std::vector<LggCandidate> scratch_;
  obs::Counter* active_nodes_ = nullptr;
};

}  // namespace lgg::core
