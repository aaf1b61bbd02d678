// Connectivity primitives: whole-graph components, components of a vertex
// subset, and bounded BFS neighbourhood collection (the "s-nearest
// neighbours" primitive of the paper's local search).

#ifndef TICL_ALGO_CONNECTIVITY_H_
#define TICL_ALGO_CONNECTIVITY_H_

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ticl {

/// Labels every vertex with a component id in [0, num_components).
struct ComponentLabels {
  std::vector<VertexId> label;
  VertexId num_components = 0;
};

/// Connected components of the whole graph (BFS).
ComponentLabels ConnectedComponents(const Graph& g);

/// Connected components of the subgraph induced by `members`.
/// Each returned component is sorted ascending. `members` must not contain
/// duplicates. Complexity O(sum of member degrees). Takes a span so callers
/// holding a view of a member array need not copy it into a vector.
std::vector<VertexList> ComponentsOfSubset(const Graph& g,
                                           std::span<const VertexId> members);

/// True if the subgraph induced by `members` is connected (empty sets and
/// singletons count as connected).
bool IsSubsetConnected(const Graph& g, const VertexList& members);

/// Collects up to `limit` vertices in BFS order from `seed` (seed included,
/// distance ties broken by adjacency order, which is ascending vertex id).
/// `allowed` filters which vertices may be visited; it must accept the seed.
/// This realizes the paper's s-nearest-neighbour expansion: when the 1-hop
/// ball is too small the search continues to 2 hops and beyond.
VertexList CollectNearestNeighbors(
    const Graph& g, VertexId seed, std::size_t limit,
    const std::function<bool(VertexId)>& allowed);

}  // namespace ticl

#endif  // TICL_ALGO_CONNECTIVITY_H_
