// Delta maintenance vs full rebuild: the number that justifies the
// dynamic-graph machinery. After a churn delta lands, the serving stack
// needs (a) the edited CSR graph and (b) a CoreIndex for it. Both paths
// pay the CSR merge; they differ in how the core numbers are obtained
// (the index is the core numbers, so wrapping them is O(n)):
//
//   full_rebuild/<churn>   ApplyDeltaToGraph + CoreIndex(g') — fresh
//                          O(n + m) bucket-peel decomposition
//   maintain/<churn>       ApplyDeltaToGraph + CoreMaintainer fed the
//                          delta + CoreIndex::FromCoreNumbers — the peel
//                          is replaced by O(affected subgraph) traversals
//   maintain_core_only     the core-number update alone (no CSR merge):
//                          the asymptotic story
//   rebuild_core_only      the decomposition alone, for the same story
//
// churn is edges churned per side (d deletes + d inserts), so 2d edits.
// Expected shape: maintain beats full_rebuild at every churn level that
// is small relative to m, with the core_only gap widening as the graph
// grows; at massive churn the two converge (the affected subgraph is the
// whole graph).

#include <cstddef>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "algo/core_decomposition.h"
#include "algo/core_maintenance.h"
#include "common/bench_env.h"
#include "graph/graph_delta.h"
#include "serve/core_index.h"

namespace {

using ticl::bench::Dataset;
using ticl::bench::DisplayName;

struct DeltaCase {
  const ticl::Graph* graph;
  ticl::GraphDelta delta;
};

/// Churn deltas are generated once per (dataset, size) and shared by every
/// configuration so all four benchmarks measure identical work.
const DeltaCase& CaseFor(ticl::StandIn dataset, std::size_t churn) {
  static std::vector<std::pair<std::string, DeltaCase>>* cache =
      new std::vector<std::pair<std::string, DeltaCase>>();
  const std::string key =
      DisplayName(dataset) + "/" + std::to_string(churn);
  for (const auto& [cached_key, cached_case] : *cache) {
    if (cached_key == key) return cached_case;
  }
  const ticl::Graph& g = Dataset(dataset);
  DeltaCase made;
  made.graph = &g;
  made.delta = ticl::RandomDelta(g, /*seed=*/17, /*inserts=*/churn,
                                 /*deletes=*/churn, /*weight_updates=*/0);
  cache->emplace_back(key, std::move(made));
  return cache->back().second;
}

void BM_FullRebuild(benchmark::State& state, ticl::StandIn dataset,
                    std::size_t churn) {
  const DeltaCase& c = CaseFor(dataset, churn);
  for (auto _ : state) {
    ticl::Graph edited = ticl::ApplyDeltaToGraph(*c.graph, c.delta);
    ticl::CoreIndex index(edited);
    benchmark::DoNotOptimize(index.degeneracy());
  }
}

void BM_Maintain(benchmark::State& state, ticl::StandIn dataset,
                 std::size_t churn) {
  const DeltaCase& c = CaseFor(dataset, churn);
  const ticl::CoreIndex base_index(*c.graph);
  std::uint64_t visited = 0;
  for (auto _ : state) {
    ticl::CoreMaintainer maintainer(*c.graph, base_index.core_numbers());
    for (const ticl::Edge& e : c.delta.delete_edges) {
      maintainer.DeleteEdge(e.u, e.v);
    }
    for (const ticl::Edge& e : c.delta.insert_edges) {
      maintainer.InsertEdge(e.u, e.v);
    }
    ticl::Graph edited = ticl::ApplyDeltaToGraph(*c.graph, c.delta);
    const std::unique_ptr<ticl::CoreIndex> index =
        ticl::CoreIndex::FromCoreNumbers(edited,
                                         maintainer.TakeCoreNumbers());
    benchmark::DoNotOptimize(index->degeneracy());
    visited += maintainer.visited_vertices();
  }
  state.counters["visited_per_iter"] = benchmark::Counter(
      static_cast<double>(visited) /
      static_cast<double>(state.iterations()));
}

void BM_RebuildCoreOnly(benchmark::State& state, ticl::StandIn dataset,
                        std::size_t churn) {
  const DeltaCase& c = CaseFor(dataset, churn);
  const ticl::Graph edited = ticl::ApplyDeltaToGraph(*c.graph, c.delta);
  for (auto _ : state) {
    const ticl::CoreDecompositionResult decomp =
        ticl::CoreDecomposition(edited);
    benchmark::DoNotOptimize(decomp.degeneracy);
  }
}

void BM_MaintainCoreOnly(benchmark::State& state, ticl::StandIn dataset,
                         std::size_t churn) {
  const DeltaCase& c = CaseFor(dataset, churn);
  const ticl::CoreIndex base_index(*c.graph);
  for (auto _ : state) {
    ticl::CoreMaintainer maintainer(*c.graph, base_index.core_numbers());
    for (const ticl::Edge& e : c.delta.delete_edges) {
      maintainer.DeleteEdge(e.u, e.v);
    }
    for (const ticl::Edge& e : c.delta.insert_edges) {
      maintainer.InsertEdge(e.u, e.v);
    }
    benchmark::DoNotOptimize(maintainer.core_numbers().data());
  }
}

void RegisterAll(ticl::StandIn dataset) {
  const ticl::Graph& g = Dataset(dataset);
  const std::string name = DisplayName(dataset);
  // 16 edits, ~0.1%, ~1%, ~5% of m (per side).
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  for (const std::size_t churn :
       {std::size_t{8}, m / 1000 + 1, m / 100 + 1, m / 20 + 1}) {
    const std::string suffix = name + "/churn:" + std::to_string(churn);
    benchmark::RegisterBenchmark(("Delta/full_rebuild/" + suffix).c_str(),
                                 BM_FullRebuild, dataset, churn)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("Delta/maintain/" + suffix).c_str(),
                                 BM_Maintain, dataset, churn)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Delta/rebuild_core_only/" + suffix).c_str(), BM_RebuildCoreOnly,
        dataset, churn)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Delta/maintain_core_only/" + suffix).c_str(), BM_MaintainCoreOnly,
        dataset, churn)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  RegisterAll(ticl::StandIn::kEmail);
  RegisterAll(ticl::StandIn::kDblp);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
