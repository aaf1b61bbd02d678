// The independent connectivity check behind ValidateCommunity.
//
// Every solver splits, peels and tests subsets through SubsetPeeler
// (algo/kcore_peeler.h). This check deliberately shares none of that code:
// it validates the solvers' output, so a bug in the peeler must not be able
// to hide itself here.

#ifndef TICL_ALGO_CONNECTIVITY_H_
#define TICL_ALGO_CONNECTIVITY_H_

#include "graph/graph.h"

namespace ticl {

/// True if the subgraph induced by `members` is connected (empty sets and
/// singletons count as connected). `members` must be duplicate-free.
/// Hash-set membership keeps this O(sum of degrees) without O(n) scratch.
bool IsSubsetConnected(const Graph& g, const VertexList& members);

}  // namespace ticl

#endif  // TICL_ALGO_CONNECTIVITY_H_
