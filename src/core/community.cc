#include "core/community.h"

#include <algorithm>
#include <cstdio>

#include "util/rng.h"

namespace ticl {

Community MakeCommunity(const Graph& g, VertexList members,
                        const AggregationSpec& spec) {
  if (!std::is_sorted(members.begin(), members.end())) {
    std::sort(members.begin(), members.end());
  }
  Community c;
  c.influence = EvaluateOnSubset(spec, g, members);
  c.hash = HashVertexSet(members.data(), members.size());
  c.members = std::move(members);
  return c;
}

bool SameMembers(const Community& a, const Community& b) {
  return a.hash == b.hash && a.members == b.members;
}

bool Retains(const TopRList<Community>& top, const Community& c) {
  return std::any_of(top.entries().begin(), top.entries().end(),
                     [&c](const auto& e) { return SameMembers(e.value, c); });
}

bool CommunitiesOverlap(const Community& a, const Community& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.members.size() && j < b.members.size()) {
    if (a.members[i] == b.members[j]) return true;
    if (a.members[i] < b.members[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

std::string CommunityToString(const Community& c, std::size_t max_members) {
  std::string out = "{";
  const std::size_t limit =
      max_members == 0 ? c.members.size()
                       : std::min(max_members, c.members.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(c.members[i]);
  }
  if (limit < c.members.size()) out += ", ...";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "} |H|=%zu f=%.6g", c.members.size(),
                c.influence);
  out += buf;
  return out;
}

}  // namespace ticl
