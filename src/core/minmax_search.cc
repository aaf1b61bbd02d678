#include "core/minmax_search.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/kcore_peeler.h"
#include "core/naive_search.h"
#include "serve/core_index.h"
#include "util/check.h"
#include "util/timing.h"
#include "util/top_r_list.h"

namespace ticl {

namespace {

/// Top-r (possibly nested) min communities within one already-peeled member
/// set, appended to `out`. One peel over `members` repeatedly deletes the
/// surviving vertex that comes first by (weight, id) and cascades, logging
/// what each step removed. The working set just before step s is every
/// vertex removed at step s or later, so replaying the log backwards
/// restores it, and step s's community is its deleted vertex's component
/// there. Only the last `want` steps are restored.
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
  peeler->Load(members, query.k);
  VertexList removed;  // every step's removals, in step order
  removed.reserve(members.size());
  // Where the last `want` steps start in `removed`: step s at
  // step_begin[s % kept]. No peel has more steps than members, so a
  // huge r costs no more than r = |members|.
  const std::size_t kept = std::min<std::size_t>(want, members.size());
  std::vector<std::size_t> step_begin(kept);
  std::size_t steps = 0;
  for (const VertexId u : order) {
    if (!peeler->Contains(u)) continue;
    step_begin[steps++ % kept] = removed.size();
    peeler->Delete(u, query.k, &removed);
  }
  ++stats->peel_operations;

  const std::size_t first_wanted = steps > kept ? steps - kept : 0;
  std::size_t end = removed.size();
  for (std::size_t s = steps; s-- > first_wanted;) {
    const std::size_t begin = step_begin[s % kept];
    peeler->Restore(std::span<const VertexId>(removed).subspan(begin,
                                                               end - begin));
    end = begin;
    out->push_back(MakeCommunity(g, peeler->ComponentOf(removed[begin]),
                                 query.aggregation));
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
