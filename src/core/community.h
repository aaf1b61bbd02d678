// The community value type returned by every solver.

#ifndef TICL_CORE_COMMUNITY_H_
#define TICL_CORE_COMMUNITY_H_

#include <cstdint>
#include <string>

#include "core/aggregation.h"
#include "graph/graph.h"
#include "util/top_r_list.h"

namespace ticl {

/// A candidate or result community: its members (sorted ascending), its
/// influence value under the query's aggregation function, and an
/// order-independent hash of the member set used for deduplication and
/// deterministic tie-breaking.
struct Community {
  VertexList members;
  double influence = 0.0;
  std::uint64_t hash = 0;

  std::size_t size() const { return members.size(); }
};

/// Builds a Community from a member list (sorted in place if needed),
/// evaluating `spec` on `g`'s weights.
Community MakeCommunity(const Graph& g, VertexList members,
                        const AggregationSpec& spec);

/// True if the two communities have the same member set. Compares hashes
/// first and members only on a match, so a hash collision never makes two
/// different communities equal.
bool SameMembers(const Community& a, const Community& b);

/// True if `top` retains a community with c's member set. The solvers
/// dedup against their at most r retained entries instead of remembering
/// every candidate: a repeat that is no longer retained was rejected or
/// evicted, so it ranks below the r-th entry, and as that threshold never
/// falls it would be rejected again.
bool Retains(const TopRList<Community>& top, const Community& c);

/// True if the two communities share at least one vertex (members sorted).
bool CommunitiesOverlap(const Community& a, const Community& b);

/// Debug string: "{v0, v1, ...} f=<influence>". Caps listed members at
/// `max_members` (0 = all).
std::string CommunityToString(const Community& c, std::size_t max_members = 0);

}  // namespace ticl

#endif  // TICL_CORE_COMMUNITY_H_
