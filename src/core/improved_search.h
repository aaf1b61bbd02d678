// Algorithm 2 (paper §IV.A): TIC-IMPROVED, the lower-bound-pruned top-r
// search for size-unconstrained queries under monotone aggregation
// functions. epsilon = 0 is the paper's "Improve" configuration (exact);
// epsilon > 0 is "Approx" with the Theorem 6 guarantee
// ra / re >= 1 - epsilon on the r-th influence value.
//
// Structure: the top-r list L holds the best r candidates seen; each round
// expands the best not-yet-expanded candidate L_max by deleting each of its
// vertices, cascade-peeling and re-inserting the resulting components.
// Monotonicity (Corollary 2) gives two prunings:
//   * a child whose O(1) value upper bound f(L_max) - contribution(v)
//     cannot beat the current r-th value f(L_r) is skipped without peeling
//     (the paper's Line 13 test);
//   * candidates evicted from L can never re-enter the top-r, so L *is*
//     the complete frontier — memory stays at O(r) communities, and a
//     repeated candidate only needs checking against L itself.
// With epsilon > 0 the loop stops as soon as L already holds r candidates
// with value >= (1 - epsilon) * f(L_max): the exact r-th value re is at
// most f(L_max), so every returned value meets the bound.
//
// Visiting order: an expansion tries its children lightest removed vertex
// first (ties to the lower id), and stops at the first child whose bound
// fails; the children not tried count as pruned. For epsilon = 0 the early
// stop is exact. Along this order the bound f(L_max) - w(v) (minus alpha
// under sum-surplus) never rises, and f(L_r) never falls, so every later
// child would fail the test too. A child the test discards ranks below r
// retained entries, and its descendants are no better. The final top-r
// therefore does not depend on the visiting order, only the work does: the
// best children come first, the threshold rises early, and with distinct
// weights the number of peels no longer depends on the vertex ids. Two
// consequences of the order: with epsilon > 0 the early stop reads the
// pool's state, so approximate answers may differ from those of another
// order (still within the guarantee); and the sequence numbers that drive
// the FIFO ablation follow it.

#ifndef TICL_CORE_IMPROVED_SEARCH_H_
#define TICL_CORE_IMPROVED_SEARCH_H_

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

struct ImprovedOptions {
  /// Approximation ratio; 0 = exact ("Improve"), paper default 0.1 for
  /// "Approx".
  double epsilon = 0.0;
  /// Ablation: disable the O(1) child-value bound pruning (always peel).
  bool enable_bound_pruning = true;
  /// Ablation: expand candidates in FIFO order instead of best-first.
  /// Exactness is unaffected (the top-r fixpoint is order-independent);
  /// the number of expansions is not.
  bool best_first = true;
  /// Optional precomputed index for the queried graph; replaces the
  /// seeding decomposition (Lines 1-2) without changing the result.
  const CoreIndex* core_index = nullptr;
};

/// Preconditions (checked): valid query, size-unconstrained, monotone
/// aggregation. TONIC queries short-circuit to the top-r k-core components
/// (paper §IV, "Non-overlapping": Lines 1-3 of Algorithm 2 suffice).
SearchResult ImprovedSearch(const Graph& g, const Query& query,
                            const ImprovedOptions& options = {});

}  // namespace ticl

#endif  // TICL_CORE_IMPROVED_SEARCH_H_
