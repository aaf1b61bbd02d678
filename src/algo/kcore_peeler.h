// The induced-subgraph workspace every solver shares.
//
// Algorithms 1 and 2 delete one vertex from a candidate community and must
// then restore the k-core property (removals can cascade) and split the
// survivors into connected components; the min peel deletes vertices one
// at a time and reads off the component of each; local search collects
// BFS neighbourhoods and tests prefixes for being connected k-cores. This
// class owns the O(n) scratch arrays for all of it. Both the working-set
// membership and the BFS visits are epoch-stamped, so each call resets in
// O(1) and costs time linear in the subset plus its incident edges, except
// that RemoveAndSplit searches for the split only around the vertices the
// cascade removed.
//
// A peeler is single-threaded scratch: parallel callers own one each.

#ifndef TICL_ALGO_KCORE_PEELER_H_
#define TICL_ALGO_KCORE_PEELER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ticl {

class SubsetPeeler {
 public:
  /// The graph must outlive the peeler.
  explicit SubsetPeeler(const Graph& g);

  /// Returns the maximal k-core of the subgraph induced by `members`
  /// (sorted ascending, duplicate-free; possibly empty), sorted.
  VertexList Peel(const VertexList& members, VertexId k);

  /// Connected components of the subgraph induced by `members` (sorted
  /// ascending, duplicate-free). Each component is sorted, and components
  /// come in order of their first member.
  std::vector<VertexList> Split(std::span<const VertexId> members);

  /// The solvers' inner step: removes `removed` (present in `members`)
  /// from `members`, peels to the k-core and splits it as Split does.
  /// `members` (sorted ascending, duplicate-free) must induce a *connected*
  /// subgraph: every component of what survives then touches a vertex the
  /// peel removed, so only the searches started next to the removed
  /// vertices run, and they stop once at most one of them is still open
  /// (see SplitAroundCascade).
  std::vector<VertexList> RemoveAndSplit(const VertexList& members,
                                         VertexId removed, VertexId k);

  /// True if `members` (any order, duplicate-free) induces a connected
  /// subgraph of minimum degree >= k. The empty set counts as one.
  bool IsConnectedKCore(std::span<const VertexId> members, VertexId k);

  /// Up to `limit` vertices in BFS order from `seed` (seed included,
  /// distance ties broken by adjacency order, which is ascending vertex
  /// id), visiting only vertices v with allowed[v] != 0. `allowed` has one
  /// entry per vertex and must admit the seed. This is the paper's
  /// s-nearest-neighbour expansion: when the 1-hop ball is too small the
  /// search continues to 2 hops and beyond.
  VertexList NearestNeighbors(VertexId seed, std::size_t limit,
                              std::span<const std::uint8_t> allowed);

  // -- Incremental peel over a working set (the min peel) -----------------

  /// Makes the maximal k-core of `members` (duplicate-free) the working
  /// set.
  void Load(const VertexList& members, VertexId k);

  bool Contains(VertexId v) const { return member_epoch_[v] == epoch_; }

  /// Deletes `u` from the working set (a no-op if absent) and cascades
  /// every vertex whose induced degree drops below k.
  void Delete(VertexId u, VertexId k);

  /// Component of working-set vertex `u`, sorted.
  VertexList ComponentOf(VertexId u);

 private:
  /// Starts a new working set holding exactly `members`.
  void Stamp(std::span<const VertexId> members);

  /// Drains queue_: removes each queued working-set vertex and queues the
  /// neighbours whose induced degree drops below k.
  void Cascade(VertexId k);

  /// Stamps the working-set component of `start` with a fresh visit stamp
  /// and leaves its vertices in queue_ (BFS order). Returns its size.
  std::size_t MarkComponent(VertexId start);

  /// Split for a working set that removals cut out of the connected
  /// `members`: searches only around the removed vertices.
  std::vector<VertexList> SplitAroundCascade(
      std::span<const VertexId> members);

  const Graph* g_;
  // v is in the working set iff member_epoch_[v] == epoch_.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> member_epoch_;
  std::vector<VertexId> degree_;  // induced degree within the working set
  // One stamp per BFS. Split stamps each component with its own value,
  // so the stamp doubles as the component label.
  std::uint64_t visit_ = 0;
  std::vector<std::uint64_t> visited_;
  std::vector<VertexId> queue_;  // cascade stack, then BFS frontier
};

}  // namespace ticl

#endif  // TICL_ALGO_KCORE_PEELER_H_
