#include "graph/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/require.hpp"
#include "graph/generators.hpp"
#include "graph/multigraph.hpp"

namespace lgg::graph {
namespace {

std::vector<std::size_t> shard_sizes(std::span<const std::uint32_t> owner,
                                     std::uint32_t parts) {
  std::vector<std::size_t> sizes(parts, 0);
  for (const std::uint32_t p : owner) {
    EXPECT_LT(p, parts);
    ++sizes[p];
  }
  return sizes;
}

TEST(Partition, CoversEveryNodeWithBalancedShards) {
  const Multigraph g = make_grid(7, 9);
  for (const std::uint32_t parts : {1u, 2u, 3u, 4u, 8u, 13u}) {
    const auto owner = partition_edge_cut(g, parts);
    ASSERT_EQ(owner.size(), static_cast<std::size_t>(g.node_count()));
    const auto sizes = shard_sizes(owner, parts);
    const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_LE(*hi - *lo, 1u) << "parts=" << parts;
  }
}

TEST(Partition, DeterministicAcrossCalls) {
  const Multigraph g = make_random_multigraph(200, 600, 77);
  EXPECT_EQ(partition_edge_cut(g, 5), partition_edge_cut(g, 5));
}

TEST(Partition, PathGraphCutsExactlyPartsMinusOne) {
  // On a path, contiguous id bands give the optimal cut: one boundary
  // edge between consecutive shards.
  const Multigraph g = make_path(24);
  for (const std::uint32_t parts : {2u, 3u, 4u, 6u}) {
    const auto owner = partition_edge_cut(g, parts);
    EXPECT_EQ(cut_edges(g, owner), static_cast<std::size_t>(parts - 1));
  }
}

TEST(Partition, SinglePartHasNoCut) {
  const Multigraph g = make_grid(5, 5);
  const auto owner = partition_edge_cut(g, 1);
  EXPECT_TRUE(std::all_of(owner.begin(), owner.end(),
                          [](std::uint32_t p) { return p == 0; }));
  EXPECT_EQ(cut_edges(g, owner), 0u);
}

TEST(Partition, MorePartsThanNodes) {
  const Multigraph g = make_path(3);
  const auto owner = partition_edge_cut(g, 8);
  const auto sizes = shard_sizes(owner, 8);
  // The first node_count shards hold one node each, the rest are empty.
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 1u), 3);
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 0u), 5);
}

TEST(Partition, DisconnectedComponentsAllAssigned) {
  // Two disjoint triangles: bands ignore connectivity, so a band may
  // straddle the gap and still every node is assigned.
  Multigraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  for (const std::uint32_t parts : {1u, 2u, 4u}) {
    const auto owner = partition_edge_cut(g, parts);
    const auto sizes = shard_sizes(owner, parts);
    std::size_t total = 0;
    for (const std::size_t s : sizes) total += s;
    EXPECT_EQ(total, 6u);
  }
}

TEST(Partition, EmptyGraph) {
  const Multigraph g(0);
  EXPECT_TRUE(partition_edge_cut(g, 3).empty());
}

TEST(Partition, GridCutIsSurfaceNotVolume) {
  // Sanity on quality: id bands split a row-major 16x16 grid into strips
  // of rows, which cut far fewer edges than a round-robin assignment.
  const Multigraph g = make_grid(16, 16);
  const auto owner = partition_edge_cut(g, 4);
  std::vector<std::uint32_t> round_robin(
      static_cast<std::size_t>(g.node_count()));
  for (std::size_t v = 0; v < round_robin.size(); ++v) {
    round_robin[v] = static_cast<std::uint32_t>(v % 4);
  }
  EXPECT_LT(cut_edges(g, owner), cut_edges(g, round_robin) / 2);
}

TEST(Partition, BandsAreContiguousAndAscending) {
  // Shard s owns one contiguous id range and ranges ascend with s: owner
  // never decreases along the node ids, whatever the topology, and the
  // larger bands come first.
  for (const Multigraph& g :
       {make_grid(9, 7), make_random_multigraph(200, 600, 77)}) {
    for (const std::uint32_t parts : {2u, 3u, 4u, 8u, 13u}) {
      const auto owner = partition_edge_cut(g, parts);
      EXPECT_TRUE(std::is_sorted(owner.begin(), owner.end()))
          << "parts=" << parts;
      const auto sizes = shard_sizes(owner, parts);
      EXPECT_TRUE(std::is_sorted(sizes.rbegin(), sizes.rend()))
          << "parts=" << parts;
    }
  }
}

TEST(Partition, RejectsZeroParts) {
  const Multigraph g = make_path(4);
  EXPECT_THROW(partition_edge_cut(g, 0), ContractViolation);
  EXPECT_THROW(band_offsets(4, 0), ContractViolation);
}

TEST(Partition, BandOffsetsSplitLargerBandsFirst) {
  EXPECT_EQ(band_offsets(10, 4), (std::vector<NodeId>{0, 3, 6, 8, 10}));
  EXPECT_EQ(band_offsets(2, 4), (std::vector<NodeId>{0, 1, 2, 2, 2}));
  EXPECT_EQ(band_offsets(0, 2), (std::vector<NodeId>{0, 0, 0}));
}

}  // namespace
}  // namespace lgg::graph
