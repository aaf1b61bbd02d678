// Prior-work baselines for the node-dominated aggregations (paper §III:
// f = min was solved by Li et al. VLDB'15 / Bi et al. VLDB'18; max is the
// straightforward extension). These power the case study's `min` column and
// give the library full Table I coverage.
//
// min: repeatedly delete the globally minimum-weight vertex of the
// surviving k-core, cascade-peeling after each deletion. The connected
// component containing the vertex, snapshotted just before its deletion, is
// a maximal k-influential community whose influence is that vertex's
// weight. Deletion values are non-decreasing, so the top-r communities are
// the last r snapshots. One peel logs what each step removed; replaying
// the log backwards rebuilds the working set of each of the last r steps,
// so only those snapshots are materialized. Total time
// O(n log n + r(n + m)).
//
// max: a community's value is its maximum member weight, so every maximal
// community is a whole k-core component; rank components by their maximum.

#ifndef TICL_CORE_MINMAX_SEARCH_H_
#define TICL_CORE_MINMAX_SEARCH_H_

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

/// Preconditions (checked): valid query, aggregation kind kMin,
/// size-unconstrained (the size-constrained variant is NP-hard; use
/// LocalSearch). TONIC mode extracts the top-1 community, removes it, and
/// repeats — results are disjoint and non-increasing in value.
/// `core_index`, when given, must be built from `g`; it replaces the
/// initial decomposition without changing the result.
SearchResult MinPeelSearch(const Graph& g, const Query& query,
                           const CoreIndex* core_index = nullptr);

/// Preconditions (checked): valid query, aggregation kind kMax,
/// size-unconstrained. Results are the k-core components ranked by their
/// maximum member weight (already disjoint, so TIC and TONIC coincide).
SearchResult MaxComponentsSearch(const Graph& g, const Query& query,
                                 const CoreIndex* core_index = nullptr);

}  // namespace ticl

#endif  // TICL_CORE_MINMAX_SEARCH_H_
