#include "algo/connectivity.h"

#include <unordered_set>
#include <vector>

#include "util/check.h"

namespace ticl {

bool IsSubsetConnected(const Graph& g, const VertexList& members) {
  if (members.size() <= 1) return true;
  std::unordered_set<VertexId> in_set(members.begin(), members.end());
  TICL_CHECK_MSG(in_set.size() == members.size(),
                 "duplicate vertex in subset");
  std::unordered_set<VertexId> visited;
  visited.reserve(members.size());
  std::vector<VertexId> queue{members.front()};
  visited.insert(members.front());
  while (!queue.empty()) {
    const VertexId v = queue.back();
    queue.pop_back();
    for (const VertexId nbr : g.neighbors(v)) {
      if (in_set.contains(nbr) && !visited.contains(nbr)) {
        visited.insert(nbr);
        queue.push_back(nbr);
      }
    }
  }
  return visited.size() == members.size();
}

}  // namespace ticl
