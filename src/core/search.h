// The library's front door: one Solve() call that dispatches a (graph,
// query) pair to the right algorithm, either automatically — following the
// paper's hardness map — or by explicit choice.

#ifndef TICL_CORE_SEARCH_H_
#define TICL_CORE_SEARCH_H_

#include <string>

#include "core/exact_search.h"
#include "core/improved_search.h"
#include "core/local_search.h"
#include "core/minmax_search.h"
#include "core/naive_search.h"
#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

enum class SolverKind {
  /// Pick automatically from the aggregation's traits and the constraints:
  ///   node-dominated + unconstrained  -> min-peel / max-components
  ///   monotone + unconstrained        -> Improved (exact, eps = 0)
  ///   everything else (NP-hard)       -> LocalSearch greedy
  kAuto,
  kNaive,           // Algorithm 1
  kImproved,        // Algorithm 2, eps = 0
  kApprox,          // Algorithm 2, eps = options.epsilon
  kExact,           // Algorithm 3 (tiny instances)
  kLocalGreedy,     // Algorithm 4, greedy strategy
  kLocalRandom,     // Algorithm 4, random (BFS-order) strategy
  kMinPeel,         // prior-work min baseline
  kMaxComponents,   // prior-work max baseline
};

std::string SolverKindName(SolverKind kind);

/// Inverse of SolverKindName: resolves a CLI-style solver name
/// ("auto", "local-greedy", ...). Returns false for unknown names. One
/// shared table so the three tools cannot drift.
bool ParseSolverKind(const std::string& name, SolverKind* kind);

struct SolveOptions {
  SolverKind solver = SolverKind::kAuto;
  /// Approximation ratio for kApprox (paper default 0.1).
  double epsilon = 0.1;
  LocalSearchOptions local;
  ExactOptions exact;
  /// Optional precomputed core index for the queried graph
  /// (serve/core_index.h). When set, solvers seed from it instead of
  /// re-running the O(n + m) core decomposition; results are identical.
  /// Must have been built from a graph with the same fingerprint as the
  /// one passed to Solve() — Solve TICL_CHECKs this, so an index for a
  /// different graph aborts instead of silently returning wrong
  /// communities.
  const CoreIndex* core_index = nullptr;
};

/// Returns "" when `options` is well-formed, else a diagnostic — notably
/// an epsilon outside [0, 1) (the Theorem 6 guarantee needs 1 - epsilon
/// > 0; NaN is rejected too). Tools and the serve layer gate on this to
/// fail cleanly; Solve() itself TICL_CHECK-aborts on violations, which is
/// the wrong failure mode for user-supplied flags.
std::string ValidateSolveOptions(const SolveOptions& options);

/// Runs the query. Preconditions of the selected solver are enforced with
/// TICL_CHECK (e.g. kNaive requires a monotone aggregation and no size
/// constraint); kAuto always selects a compatible solver.
SearchResult Solve(const Graph& g, const Query& query,
                   const SolveOptions& options = {});

/// The solver kAuto would select for this query.
SolverKind AutoSolverFor(const Query& query);

/// `solver`, with kAuto resolved for `query`.
SolverKind ResolveSolver(const Query& query, SolverKind solver);

/// True when `solver` (kAuto resolved) answers `query` from a ranking that
/// does not depend on r, so its top-r is the r-prefix of its top-R (the
/// progressive property of Bi et al.) up to ties at the cut: improved
/// search at epsilon = 0, naive search, exact enumeration, the min peel
/// and the max components, in TIC and TONIC mode. The exact solvers rank
/// every community by (influence desc, member hash); the min peel takes
/// the last peel steps and greedy TONIC its rounds in order, and both
/// sequences are non-increasing in influence. Approximate and local
/// search are not: their pruning and seeding depend on r.
bool PrefixStableSolver(const Query& query, SolverKind solver);

}  // namespace ticl

#endif  // TICL_CORE_SEARCH_H_
