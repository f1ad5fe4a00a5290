// Deterministic node partitioning for the shard engine.
//
// The shard engine (core/parallel_step.hpp) assigns every node to exactly
// one of K shards; an edge whose endpoints land in different shards is a
// *boundary* edge, and transmissions across it are the data the shards
// must exchange each step.  Because the partition feeds a
// bitwise-deterministic engine, it must itself be a pure function of
// (graph, K).
//
// Shard s owns the contiguous node-id band [lo_s, lo_{s+1}).  Bands are
// balanced to within one node, larger bands first.  Contiguity is what
// the engine builds on: ownership is a range compare, a shard's node and
// role lists are sub-spans of the network's ascending id lists, and the
// shards' selection outputs concatenate, in shard order, into the
// ascending-sender order of an inline run.  On row-major meshes a band is
// a strip of rows, so its cut scales with the strip's width; on expanders
// every balanced partition cuts most edges anyway.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/multigraph.hpp"

namespace lgg::graph {

/// The K + 1 band offsets lo_0 = 0 <= lo_1 <= ... <= lo_K = node_count of
/// `parts` shards over node ids [0, node_count).  The first
/// node_count % parts bands hold one node more than the rest; when parts
/// > node_count the trailing bands are empty.  Requires parts >= 1.
std::vector<NodeId> band_offsets(NodeId node_count, std::uint32_t parts);

/// Assigns every node of `g` to one of `parts` shards (returned vector is
/// node-indexed, values in [0, parts)): node v goes to the band of
/// band_offsets that contains it, so owner is non-decreasing in v.
/// Deterministic: equal inputs give equal partitions.  Shard sizes differ
/// by at most one; when parts >= node_count the first node_count shards
/// hold one node each and the rest are empty.  Requires parts >= 1.
std::vector<std::uint32_t> partition_edge_cut(const Multigraph& g,
                                              std::uint32_t parts);

/// Number of edges whose endpoints lie in different shards under `owner`
/// (parallel edges counted individually, like the engine's exchange cost).
std::size_t cut_edges(const Multigraph& g,
                      std::span<const std::uint32_t> owner);

}  // namespace lgg::graph
