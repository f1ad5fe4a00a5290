#include "graph/partition.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace lgg::graph {

std::vector<NodeId> band_offsets(NodeId node_count, std::uint32_t parts) {
  LGG_REQUIRE(parts >= 1, "band_offsets: parts >= 1");
  const auto n = static_cast<std::size_t>(node_count);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  std::vector<NodeId> lo(static_cast<std::size_t>(parts) + 1);
  for (std::size_t s = 0; s <= parts; ++s) {
    lo[s] = static_cast<NodeId>(s * base + std::min(s, extra));
  }
  return lo;
}

std::vector<std::uint32_t> partition_edge_cut(const Multigraph& g,
                                              std::uint32_t parts) {
  const std::vector<NodeId> lo = band_offsets(g.node_count(), parts);
  std::vector<std::uint32_t> owner(static_cast<std::size_t>(g.node_count()));
  for (std::uint32_t s = 0; s < parts; ++s) {
    std::fill(owner.begin() + lo[s], owner.begin() + lo[s + 1], s);
  }
  return owner;
}

std::size_t cut_edges(const Multigraph& g,
                      std::span<const std::uint32_t> owner) {
  LGG_REQUIRE(owner.size() == static_cast<std::size_t>(g.node_count()),
              "cut_edges: owner size mismatch");
  std::size_t cut = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Endpoints ep = g.endpoints(e);
    if (owner[static_cast<std::size_t>(ep.u)] !=
        owner[static_cast<std::size_t>(ep.v)]) {
      ++cut;
    }
  }
  return cut;
}

}  // namespace lgg::graph
