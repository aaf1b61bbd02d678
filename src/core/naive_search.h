// Algorithm 1 (paper §IV.A): the SUM-NA\"IVE top-r search for
// size-unconstrained queries under monotone aggregation functions
// (sum, sum-surplus).
//
// Literal implementation: seed the top-r list with the connected components
// of the maximal k-core, then scan vertices v_1..v_n; deleting v_i from
// every retained community containing it, cascade-peeling the remainder
// back to a k-core, and folding the resulting components back into the
// top-r list. Complexity O(n * r * (n + m)).

#ifndef TICL_CORE_NAIVE_SEARCH_H_
#define TICL_CORE_NAIVE_SEARCH_H_

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

/// Preconditions (checked): valid query, size-unconstrained, monotone
/// aggregation (IsMonotoneUnderRemoval). TONIC queries short-circuit to the
/// top-r k-core components (paper §IV, "Non-overlapping"). `core_index`,
/// when given, must be built from `g`; it replaces the initial
/// decomposition without changing the result.
SearchResult NaiveSearch(const Graph& g, const Query& query,
                         const CoreIndex* core_index = nullptr);

/// Lines 1-2 of Algorithms 1 and 2 on their own: the connected components
/// of the maximal k-core, ranked, top r. Components are maximal and
/// disjoint, so they are the whole answer for TONIC under a monotone f
/// (naive and improved search) and for f = max (MaxComponentsSearch).
/// Checks nothing about the query; callers do.
SearchResult TopRCoreComponents(const Graph& g, const Query& query,
                                const CoreIndex* core_index);

}  // namespace ticl

#endif  // TICL_CORE_NAIVE_SEARCH_H_
