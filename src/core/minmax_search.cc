#include "core/minmax_search.h"

#include <algorithm>
#include <cstdint>

#include "algo/kcore_peeler.h"
#include "core/naive_search.h"
#include "serve/core_index.h"
#include "util/check.h"
#include "util/timing.h"
#include "util/top_r_list.h"

namespace ticl {

namespace {

/// Replays the min-weight peel over `members` (a k-core): repeatedly
/// deletes the surviving vertex u that comes first in `order` (members by
/// (weight, id)) and cascades. Appends u's component, taken just before
/// u's deletion, for every step >= first_wanted. Returns the step count.
std::size_t MinPeel(SubsetPeeler* peeler, const VertexList& members,
                    const VertexList& order, VertexId k,
                    std::size_t first_wanted, std::vector<VertexList>* out) {
  peeler->Load(members, k);
  std::size_t step = 0;
  for (const VertexId u : order) {
    if (!peeler->Contains(u)) continue;
    if (step++ >= first_wanted) out->push_back(peeler->ComponentOf(u));
    peeler->Delete(u, k);
  }
  return step;
}

/// Top-r (possibly nested) min communities within one already-peeled member
/// set, appended to `out` via two peel passes.
void MinTopRWithin(const Graph& g, SubsetPeeler* peeler,
                   const VertexList& members, const Query& query,
                   std::uint32_t want, std::vector<Community>* out,
                   SearchStats* stats) {
  if (members.empty()) return;
  VertexList order = members;
  std::sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    if (g.weight(a) != g.weight(b)) return g.weight(a) < g.weight(b);
    return a < b;
  });
  std::vector<VertexList> snapshots;
  const std::size_t total_steps =
      MinPeel(peeler, members, order, query.k, SIZE_MAX, &snapshots);
  ++stats->peel_operations;
  if (total_steps == 0) return;

  const std::size_t first_wanted =
      total_steps > want ? total_steps - want : 0;
  MinPeel(peeler, members, order, query.k, first_wanted, &snapshots);
  ++stats->peel_operations;
  for (VertexList& component : snapshots) {
    out->push_back(MakeCommunity(g, std::move(component), query.aggregation));
    ++stats->candidates_generated;
  }
}

}  // namespace

SearchResult MinPeelSearch(const Graph& g, const Query& query,
                           const CoreIndex* core_index) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  TICL_CHECK_MSG(query.aggregation.kind == Aggregation::kMin,
                 "MinPeelSearch is the f = min solver");
  TICL_CHECK_MSG(!query.size_constrained(),
                 "size-constrained min is NP-hard; use LocalSearch");
  WallTimer timer;
  SearchResult result;

  VertexList core = IndexedMaximalKCore(core_index, g, query.k);
  SubsetPeeler peeler(g);
  if (!query.non_overlapping) {
    std::vector<Community> found;
    MinTopRWithin(g, &peeler, core, query, query.r, &found, &result.stats);
    std::sort(found.begin(), found.end(),
              [](const Community& a, const Community& b) {
                return TopRList<int>::Better(a.influence, a.hash, b.influence,
                                             b.hash);
              });
    if (found.size() > query.r) found.resize(query.r);
    result.communities = std::move(found);
  } else {
    // Greedy TONIC: top-1, remove its vertices, re-peel, repeat.
    for (std::uint32_t round = 0; round < query.r && !core.empty();
         ++round) {
      std::vector<Community> best;
      MinTopRWithin(g, &peeler, core, query, 1, &best, &result.stats);
      if (best.empty()) break;
      Community chosen = std::move(best.front());
      VertexList remaining;
      std::set_difference(core.begin(), core.end(), chosen.members.begin(),
                          chosen.members.end(),
                          std::back_inserter(remaining));
      core = peeler.Peel(remaining, query.k);
      ++result.stats.peel_operations;
      result.communities.push_back(std::move(chosen));
    }
    std::sort(result.communities.begin(), result.communities.end(),
              [](const Community& a, const Community& b) {
                return TopRList<int>::Better(a.influence, a.hash, b.influence,
                                             b.hash);
              });
  }

  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

SearchResult MaxComponentsSearch(const Graph& g, const Query& query,
                                 const CoreIndex* core_index) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  TICL_CHECK_MSG(query.aggregation.kind == Aggregation::kMax,
                 "MaxComponentsSearch is the f = max solver");
  TICL_CHECK_MSG(!query.size_constrained(),
                 "size-constrained max is NP-hard; use LocalSearch");
  return TopRCoreComponents(g, query, core_index);
}

}  // namespace ticl
