#include "bridge.h"

#include <algorithm>
#include <unordered_set>

#include "core/aggregation.h"

namespace e2e {

ticl::Query ToQuery(const MenuQuery& q) {
  ticl::Query query;
  query.k = q.k;
  query.r = q.r;
  query.size_limit = q.s;
  query.non_overlapping = q.tonic;
  if (q.f == "min") {
    query.aggregation = ticl::AggregationSpec::Min();
  } else if (q.f == "max") {
    query.aggregation = ticl::AggregationSpec::Max();
  } else if (q.f == "avg") {
    query.aggregation = ticl::AggregationSpec::Avg();
  } else if (q.f == "sum-surplus") {
    query.aggregation = ticl::AggregationSpec::SumSurplus(q.alpha);
  } else {
    query.aggregation = ticl::AggregationSpec::Sum();
  }
  return query;
}

ticl::GraphDelta ToGraphDelta(const Edits& edits) {
  ticl::GraphDelta delta;
  for (const auto& [u, v] : edits.inserts) delta.insert_edges.push_back({u, v});
  for (const auto& [u, v] : edits.deletes) delta.delete_edges.push_back({u, v});
  for (const auto& [v, w] : edits.reweights) {
    delta.weight_updates.push_back({v, w});
  }
  return delta;
}

ticl::Graph ToGraph(const EdgeGraph& g, const std::vector<double>& weights) {
  std::vector<std::vector<ticl::VertexId>> adj(g.n);
  for (const auto& [u, v] : g.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<ticl::EdgeIndex> offsets(g.n + 1, 0);
  std::vector<ticl::VertexId> flat;
  flat.reserve(g.edges.size() * 2);
  for (std::uint32_t v = 0; v < g.n; ++v) {
    std::sort(adj[v].begin(), adj[v].end());
    flat.insert(flat.end(), adj[v].begin(), adj[v].end());
    offsets[v + 1] = flat.size();
  }
  ticl::Graph graph(std::move(offsets), std::move(flat));
  graph.SetWeights(weights);
  return graph;
}

EdgeGraph ApplyEdits(const EdgeGraph& g, const Edits& edits) {
  std::unordered_set<std::uint64_t> gone;
  for (auto [u, v] : edits.deletes) {
    if (u > v) std::swap(u, v);
    gone.insert((static_cast<std::uint64_t>(u) << 32) | v);
  }
  EdgeGraph out;
  out.n = g.n;
  out.edges.reserve(g.edges.size() + edits.inserts.size());
  for (const auto& [u, v] : g.edges) {
    if (gone.count((static_cast<std::uint64_t>(u) << 32) | v) == 0) {
      out.edges.emplace_back(u, v);
    }
  }
  for (auto [u, v] : edits.inserts) {
    if (u > v) std::swap(u, v);
    out.edges.emplace_back(u, v);
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

const std::vector<MenuQuery>& MixQueries(const WorkloadSpec& spec) {
  return spec.step_queries.empty() ? spec.menu : spec.step_queries;
}

}  // namespace e2e
