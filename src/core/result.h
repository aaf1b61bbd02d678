// Solver output: ranked communities plus execution statistics.

#ifndef TICL_CORE_RESULT_H_
#define TICL_CORE_RESULT_H_

#include <cstdint>
#include <vector>

#include "core/community.h"

namespace ticl {

/// Counters filled in by the solvers; benches surface these alongside the
/// wall-clock numbers.
struct SearchStats {
  double elapsed_seconds = 0.0;
  /// Candidate communities materialized (after dedup).
  std::uint64_t candidates_generated = 0;
  /// Candidates rejected by the f(L_r) / lower-bound pruning rules. A
  /// repeat of a candidate that is no longer retained lands here too: it
  /// ranks below the r-th entry, so it is rejected again. Improved search
  /// stops an expansion at the first child whose bound fails and counts
  /// that child and every child not yet tried.
  std::uint64_t candidates_pruned = 0;
  /// Cascade peel invocations (the RemoveAndSplit inner step). In improved
  /// search, one per child that passed the bound; children are tried
  /// lightest removed vertex first, so with distinct weights the count does
  /// not depend on the vertex ids.
  std::uint64_t peel_operations = 0;
  /// Candidates whose member set is already retained (hashes matched, then
  /// members compared); only the at most r retained entries are searched.
  std::uint64_t duplicates_skipped = 0;
  /// Local search only: seeds expanded.
  std::uint64_t seeds_processed = 0;
  /// Improved search only: max heap size observed.
  std::uint64_t peak_frontier = 0;
};

struct SearchResult {
  /// Best-first: communities[0] is the top-1. At most r entries; fewer when
  /// the graph does not contain r qualifying communities.
  std::vector<Community> communities;
  SearchStats stats;
};

}  // namespace ticl

#endif  // TICL_CORE_RESULT_H_
