#include "core/improved_search.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/naive_search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "graph/graph_builder.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

Query SumQuery(VertexId k, std::uint32_t r) {
  Query q;
  q.k = k;
  q.r = r;
  q.aggregation = AggregationSpec::Sum();
  return q;
}

TEST(ImprovedSearchTest, FixtureTopFiveValues) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result = ImprovedSearch(g, SumQuery(2, 5));
  ASSERT_EQ(result.communities.size(), 5u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 106.0);
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 105.0);
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 104.0);
  EXPECT_DOUBLE_EQ(result.communities[3].influence, 103.0);
  EXPECT_DOUBLE_EQ(result.communities[4].influence, 78.0);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
}

TEST(ImprovedSearchTest, MatchesNaiveOnFixtureEveryR) {
  const Graph g = TwoTrianglesAndK4();
  for (std::uint32_t r = 1; r <= 8; ++r) {
    const SearchResult improved = ImprovedSearch(g, SumQuery(2, r));
    const SearchResult naive = NaiveSearch(g, SumQuery(2, r));
    ASSERT_EQ(improved.communities.size(), naive.communities.size())
        << "r=" << r;
    for (std::size_t i = 0; i < improved.communities.size(); ++i) {
      EXPECT_DOUBLE_EQ(improved.communities[i].influence,
                       naive.communities[i].influence)
          << "r=" << r << " i=" << i;
      EXPECT_EQ(improved.communities[i].members,
                naive.communities[i].members);
    }
  }
}

TEST(ImprovedSearchTest, ExhaustsFamilyWhenRLarge) {
  const Graph g = TwoTrianglesAndK4();
  // The full deletion family at k=2 has 8 communities (see builders.h).
  const SearchResult result = ImprovedSearch(g, SumQuery(2, 50));
  EXPECT_EQ(result.communities.size(), 8u);
  EXPECT_EQ(ValidateResult(g, SumQuery(2, 50), result), "");
}

TEST(ImprovedSearchTest, PruningDoesNotChangeResults) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions no_pruning;
  no_pruning.enable_bound_pruning = false;
  const SearchResult pruned = ImprovedSearch(g, SumQuery(2, 5));
  const SearchResult unpruned =
      ImprovedSearch(g, SumQuery(2, 5), no_pruning);
  ASSERT_EQ(pruned.communities.size(), unpruned.communities.size());
  for (std::size_t i = 0; i < pruned.communities.size(); ++i) {
    EXPECT_EQ(pruned.communities[i].members, unpruned.communities[i].members);
  }
  // Pruning must do no more peel work than the unpruned run.
  EXPECT_LE(pruned.stats.peel_operations, unpruned.stats.peel_operations);
}

TEST(ImprovedSearchTest, FifoOrderSameResults) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions fifo;
  fifo.best_first = false;
  const SearchResult best_first = ImprovedSearch(g, SumQuery(2, 5));
  const SearchResult fifo_result = ImprovedSearch(g, SumQuery(2, 5), fifo);
  ASSERT_EQ(best_first.communities.size(), fifo_result.communities.size());
  for (std::size_t i = 0; i < best_first.communities.size(); ++i) {
    EXPECT_EQ(best_first.communities[i].members,
              fifo_result.communities[i].members);
  }
}

TEST(ImprovedSearchTest, ApproxNeverWorseThanGuarantee) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult exact = ImprovedSearch(g, SumQuery(2, 4));
  for (const double epsilon : {0.01, 0.1, 0.3, 0.9}) {
    ImprovedOptions approx;
    approx.epsilon = epsilon;
    const SearchResult result =
        ImprovedSearch(g, SumQuery(2, 4), approx);
    ASSERT_EQ(result.communities.size(), 4u) << "eps=" << epsilon;
    EXPECT_GE(result.communities[3].influence,
              (1.0 - epsilon) * exact.communities[3].influence);
    EXPECT_EQ(ValidateResult(g, SumQuery(2, 4), result), "");
  }
}

TEST(ImprovedSearchTest, ApproxDoesNoMoreWorkThanExact) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions approx;
  approx.epsilon = 0.5;
  const SearchResult exact = ImprovedSearch(g, SumQuery(2, 5));
  const SearchResult loose = ImprovedSearch(g, SumQuery(2, 5), approx);
  EXPECT_LE(loose.stats.peel_operations, exact.stats.peel_operations);
}

TEST(ImprovedSearchTest, TonicReturnsComponents) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 5);
  query.non_overlapping = true;
  const SearchResult result = ImprovedSearch(g, query);
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
  EXPECT_EQ(ValidateResult(g, query, result), "");
}

TEST(ImprovedSearchTest, NoKCoreYieldsEmpty) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(ImprovedSearch(g, SumQuery(5, 3)).communities.empty());
}

TEST(ImprovedSearchTest, SumSurplusMatchesNaive) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 4);
  query.aggregation = AggregationSpec::SumSurplus(3.0);
  const SearchResult improved = ImprovedSearch(g, query);
  const SearchResult naive = NaiveSearch(g, query);
  ASSERT_EQ(improved.communities.size(), naive.communities.size());
  for (std::size_t i = 0; i < improved.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(improved.communities[i].influence,
                     naive.communities[i].influence);
  }
}

/// `g` with vertex v renamed new_id[v], weights carried along.
Graph Relabel(const Graph& g, const VertexList& new_id) {
  GraphBuilder b;
  b.SetNumVertices(g.num_vertices());
  std::vector<Weight> weights(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    weights[new_id[u]] = g.weight(u);
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) b.AddEdge(new_id[u], new_id[v]);
    }
  }
  Graph out = b.Build();
  out.SetWeights(std::move(weights));
  return out;
}

TEST(ImprovedSearchTest, WorkDoesNotDependOnVertexLabels) {
  // Children are visited lightest first, so with distinct weights neither
  // the answer nor the number of peels may depend on how vertices are
  // numbered: as generated, hubs first, or shuffled.
  ChungLuOptions options;
  options.num_vertices = 2000;
  options.target_average_degree = 8.0;
  options.seed = 5;
  Graph generated = GenerateChungLu(options);
  AssignWeights(&generated, WeightScheme::kLogNormal, 5);
  const VertexId n = generated.num_vertices();

  VertexList by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&generated](VertexId a, VertexId b) {
                     return generated.degree(a) > generated.degree(b);
                   });
  VertexList hub_first(n);  // old id -> new id
  for (VertexId rank = 0; rank < n; ++rank) hub_first[by_degree[rank]] = rank;
  VertexList shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), VertexId{0});
  Rng rng(5);
  rng.Shuffle(shuffled.data(), shuffled.size());

  const Query query = SumQuery(4, 10);
  const SearchResult base = ImprovedSearch(generated, query);
  ASSERT_EQ(base.communities.size(), 10u);
  for (const VertexList& new_id : {hub_first, shuffled}) {
    const Graph relabelled = Relabel(generated, new_id);
    const SearchResult result = ImprovedSearch(relabelled, query);
    EXPECT_EQ(result.stats.peel_operations, base.stats.peel_operations);
    ASSERT_EQ(result.communities.size(), base.communities.size());
    for (std::size_t i = 0; i < base.communities.size(); ++i) {
      const Community& want = base.communities[i];
      VertexList mapped;
      for (const VertexId v : want.members) mapped.push_back(new_id[v]);
      std::sort(mapped.begin(), mapped.end());
      EXPECT_EQ(result.communities[i].members, mapped) << "rank " << i;
      // Sums run in member order, which the relabelling changes.
      EXPECT_NEAR(result.communities[i].influence, want.influence,
                  1e-9 * want.influence);
    }
  }
}

TEST(ImprovedSearchDeathTest, RejectsAvg) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 1);
  query.aggregation = AggregationSpec::Avg();
  EXPECT_DEATH(ImprovedSearch(g, query), "monotone");
}

TEST(ImprovedSearchDeathTest, RejectsSizeConstraint) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 1);
  query.size_limit = 5;
  EXPECT_DEATH(ImprovedSearch(g, query), "size-unconstrained");
}

TEST(ImprovedSearchDeathTest, RejectsBadEpsilon) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions options;
  options.epsilon = 1.0;
  EXPECT_DEATH(ImprovedSearch(g, SumQuery(2, 1), options), "");
}

}  // namespace
}  // namespace ticl
