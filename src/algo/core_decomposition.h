// k-core machinery: full core decomposition (Batagelj–Zaveršnik bucket
// peel) and maximal k-core extraction. Splitting a k-core into its
// connected components is SubsetPeeler::Split (algo/kcore_peeler.h).

#ifndef TICL_ALGO_CORE_DECOMPOSITION_H_
#define TICL_ALGO_CORE_DECOMPOSITION_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace ticl {

/// Result of a full core decomposition.
struct CoreDecompositionResult {
  /// core[v] = largest k such that v belongs to a k-core.
  std::vector<VertexId> core;
  /// Degeneracy of the graph: max over core[] (the paper's k_max).
  VertexId degeneracy = 0;
};

/// O(n + m) bucket-peeling core decomposition.
CoreDecompositionResult CoreDecomposition(const Graph& g);

/// Reference implementation that repeatedly scans for a minimum-degree
/// vertex (O(n^2 + m) worst case). Exists to cross-check the bucket peel in
/// tests and to quantify its benefit in bench_ablation_peel.
CoreDecompositionResult CoreDecompositionNaive(const Graph& g);

/// {v : core[v] >= k}, sorted ascending: the maximal k-core when `core`
/// is a core decomposition. One branchless O(n) scan; shared by
/// MaximalKCore and CoreIndex::CoreMembers so both seed identically.
VertexList VerticesWithCoreAtLeast(std::span<const VertexId> core,
                                   VertexId k);

/// Vertices of the maximal k-core (sorted ascending; empty if none).
VertexList MaximalKCore(const Graph& g, VertexId k);

}  // namespace ticl

#endif  // TICL_ALGO_CORE_DECOMPOSITION_H_
