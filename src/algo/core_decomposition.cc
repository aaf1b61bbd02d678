#include "algo/core_decomposition.h"

#include <algorithm>

#include "util/check.h"

namespace ticl {

CoreDecompositionResult CoreDecomposition(const Graph& g) {
  const VertexId n = g.num_vertices();
  CoreDecompositionResult out;
  out.core.assign(n, 0);
  if (n == 0) return out;

  // Bucket sort vertices by degree.
  const VertexId max_deg = g.max_degree();
  std::vector<VertexId> bin(static_cast<std::size_t>(max_deg) + 2, 0);
  std::vector<VertexId> deg(n);
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    ++bin[deg[v]];
  }
  VertexId start = 0;
  for (VertexId d = 0; d <= max_deg; ++d) {
    const VertexId count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<VertexId> order(n);   // vertices sorted by current degree
  std::vector<VertexId> pos(n);     // position of each vertex in `order`
  for (VertexId v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]];
    order[pos[v]] = v;
    ++bin[deg[v]];
  }
  // Restore bin[d] = first index with degree d.
  for (VertexId d = max_deg; d >= 1; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  // Peel in non-decreasing degree order; when v is peeled, its remaining
  // neighbours' degrees drop by one (constant-time bucket moves).
  for (VertexId i = 0; i < n; ++i) {
    const VertexId v = order[i];
    out.core[v] = deg[v];
    for (const VertexId u : g.neighbors(v)) {
      if (deg[u] <= deg[v]) continue;  // already peeled or tied
      const VertexId du = deg[u];
      const VertexId pu = pos[u];
      const VertexId pw = bin[du];  // first vertex of u's bucket
      const VertexId w = order[pw];
      if (u != w) {
        std::swap(order[pu], order[pw]);
        pos[u] = pw;
        pos[w] = pu;
      }
      ++bin[du];
      --deg[u];
    }
  }
  out.degeneracy = *std::max_element(out.core.begin(), out.core.end());
  return out;
}

CoreDecompositionResult CoreDecompositionNaive(const Graph& g) {
  const VertexId n = g.num_vertices();
  CoreDecompositionResult out;
  out.core.assign(n, 0);
  if (n == 0) return out;

  std::vector<VertexId> deg(n);
  std::vector<bool> removed(n, false);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.degree(v);

  for (VertexId peeled = 0; peeled < n; ++peeled) {
    // Linear scan for the minimum-degree surviving vertex.
    VertexId best = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (removed[v]) continue;
      if (best == kInvalidVertex || deg[v] < deg[best]) best = v;
    }
    removed[best] = true;
    // Core number is monotone over the peel: at least the previous max seen.
    out.degeneracy = std::max(out.degeneracy, deg[best]);
    out.core[best] = out.degeneracy;
    for (const VertexId u : g.neighbors(best)) {
      if (!removed[u] && deg[u] > 0) --deg[u];
    }
  }
  return out;
}

VertexList VerticesWithCoreAtLeast(std::span<const VertexId> core,
                                   VertexId k) {
  // Write every id and advance the cursor only past members: no branch to
  // mispredict when ids are shuffled relative to core numbers.
  VertexList members(core.size());
  std::size_t count = 0;
  for (std::size_t v = 0; v < core.size(); ++v) {
    members[count] = static_cast<VertexId>(v);
    count += static_cast<std::size_t>(core[v] >= k);
  }
  members.resize(count);
  return members;
}

VertexList MaximalKCore(const Graph& g, VertexId k) {
  return VerticesWithCoreAtLeast(CoreDecomposition(g).core, k);
}

}  // namespace ticl
