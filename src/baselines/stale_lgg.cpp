#include "baselines/stale_lgg.hpp"

#include "common/binio.hpp"
#include "common/require.hpp"

namespace lgg::baselines {

StaleLggProtocol::StaleLggProtocol(int delay, core::TieBreak tie_break)
    : delay_(delay), tie_break_(tie_break) {
  LGG_REQUIRE(delay >= 0, "StaleLggProtocol: delay >= 0");
}

void StaleLggProtocol::select_transmissions(
    const core::StepView& view, Rng& rng,
    std::vector<core::Transmission>& out) {
  // Record this step's declarations, then look `delay_` steps back.
  history_.emplace_back(view.declared.begin(), view.declared.end());
  while (static_cast<int>(history_.size()) > delay_ + 1) {
    history_.pop_front();
  }
  const std::vector<PacketCount>& stale = history_.front();

  // The shuffle tie-break draws the phase-global stream, node by node.
  const NodeId n = view.net->node_count();
  for (NodeId u = 0; u < n; ++u) {
    core::select_lgg_links(view, u, stale, tie_break_, &rng, scratch_, out);
  }
}

void StaleLggProtocol::save_state(std::ostream& os) const {
  binio::write_u32(os, static_cast<std::uint32_t>(history_.size()));
  for (const std::vector<PacketCount>& snapshot : history_) {
    binio::write_u32(os, static_cast<std::uint32_t>(snapshot.size()));
    for (const PacketCount q : snapshot) binio::write_i64(os, q);
  }
}

void StaleLggProtocol::load_state(std::istream& is) {
  history_.clear();
  const std::uint32_t depth = binio::read_u32(is);
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t n = binio::read_u32(is);
    std::vector<PacketCount> snapshot(n);
    for (std::uint32_t v = 0; v < n; ++v) snapshot[v] = binio::read_i64(is);
    history_.push_back(std::move(snapshot));
  }
}

}  // namespace lgg::baselines
