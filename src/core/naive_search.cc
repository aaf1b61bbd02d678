#include "core/naive_search.h"

#include <algorithm>

#include "algo/kcore_peeler.h"
#include "core/verification.h"
#include "serve/core_index.h"
#include "util/check.h"
#include "util/timing.h"
#include "util/top_r_list.h"

namespace ticl {

SearchResult TopRCoreComponents(const Graph& g, const Query& query,
                                const CoreIndex* core_index) {
  WallTimer timer;
  SearchResult result;
  SubsetPeeler peeler(g);
  TopRList<Community> top(query.r);
  for (VertexList& component :
       peeler.Split(IndexedMaximalKCore(core_index, g, query.k))) {
    Community c = MakeCommunity(g, std::move(component), query.aggregation);
    ++result.stats.candidates_generated;
    const double influence = c.influence;
    const std::uint64_t hash = c.hash;
    top.Insert(influence, hash, std::move(c));
  }
  for (auto& entry : top.TakeSortedDescending()) {
    result.communities.push_back(std::move(entry.value));
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

SearchResult NaiveSearch(const Graph& g, const Query& query,
                         const CoreIndex* core_index) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  TICL_CHECK_MSG(!query.size_constrained(),
                 "NaiveSearch solves the size-unconstrained problem only");
  TICL_CHECK_MSG(IsMonotoneUnderRemoval(query.aggregation),
                 "NaiveSearch requires a monotone aggregation (sum family)");
  if (query.non_overlapping) {
    return TopRCoreComponents(g, query, core_index);
  }

  WallTimer timer;
  SearchResult result;
  SubsetPeeler peeler(g);

  // Lines 1-2: L <- top-r components of the maximal k-core.
  TopRList<Community> top(query.r);
  for (VertexList& component :
       peeler.Split(IndexedMaximalKCore(core_index, g, query.k))) {
    Community c =
        MakeCommunity(g, std::move(component), query.aggregation);
    ++result.stats.candidates_generated;
    const double influence = c.influence;
    const std::uint64_t hash = c.hash;
    top.Insert(influence, hash, std::move(c));
  }

  // Lines 3-10: scan every vertex, deleting it from each retained community
  // that contains it.
  const VertexId n = g.num_vertices();
  std::vector<Community> batch;
  for (VertexId vi = 0; vi < n; ++vi) {
    batch.clear();
    for (const auto& entry : top.entries()) {
      const VertexList& members = entry.value.members;
      if (!std::binary_search(members.begin(), members.end(), vi)) continue;
      ++result.stats.peel_operations;
      for (VertexList& child :
           peeler.RemoveAndSplit(members, vi, query.k)) {
        batch.push_back(
            MakeCommunity(g, std::move(child), query.aggregation));
      }
    }
    for (Community& c : batch) {
      if (Retains(top, c)) {
        ++result.stats.duplicates_skipped;
        continue;
      }
      ++result.stats.candidates_generated;
      const double influence = c.influence;
      const std::uint64_t hash = c.hash;
      if (!top.Insert(influence, hash, std::move(c))) {
        ++result.stats.candidates_pruned;
      }
    }
  }

  for (auto& entry : top.TakeSortedDescending()) {
    result.communities.push_back(std::move(entry.value));
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ticl
