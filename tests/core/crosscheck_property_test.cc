// Cross-implementation property tests: the three independent solvers for
// monotone aggregations (Algorithm 1, Algorithm 2, and subset enumeration)
// must agree on random graphs, and every solver's output must validate.
// Algorithms 1 and 2 share SubsetPeeler::RemoveAndSplit, so only the
// enumeration (which tests candidates with IsConnectedKCore) checks their
// splits independently; the bead graphs below make deletions cut a
// community into three or more parts.

#include <algorithm>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/exact_search.h"
#include "core/improved_search.h"
#include "core/local_search.h"
#include "core/minmax_search.h"
#include "core/naive_search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"

namespace ticl {
namespace {

Graph RandomWeightedEr(VertexId n, std::uint64_t m, std::uint64_t seed) {
  Graph g = GenerateErdosRenyi(n, m, seed);
  AssignWeights(&g, WeightScheme::kUniform, seed ^ 0x9999);
  return g;
}

void ExpectSameCommunities(const SearchResult& a, const SearchResult& b,
                           const std::string& label) {
  ASSERT_EQ(a.communities.size(), b.communities.size()) << label;
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.communities[i].influence, b.communities[i].influence)
        << label << " rank " << i;
    EXPECT_EQ(a.communities[i].members, b.communities[i].members)
        << label << " rank " << i;
  }
}

class SumCrossCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SumCrossCheckTest, NaiveEqualsImprovedOnErdosRenyi) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(60, 160, seed);
  for (const VertexId k : {2u, 3u}) {
    for (const std::uint32_t r : {1u, 4u, 8u}) {
      Query query;
      query.k = k;
      query.r = r;
      query.aggregation = AggregationSpec::Sum();
      const SearchResult naive = NaiveSearch(g, query);
      const SearchResult improved = ImprovedSearch(g, query);
      ExpectSameCommunities(naive, improved,
                            "k=" + std::to_string(k) +
                                " r=" + std::to_string(r) +
                                " seed=" + std::to_string(seed));
      EXPECT_EQ(ValidateResult(g, query, naive), "");
      EXPECT_EQ(ValidateResult(g, query, improved), "");
    }
  }
}

TEST_P(SumCrossCheckTest, NaiveEqualsImprovedOnPowerLaw) {
  const std::uint64_t seed = GetParam();
  Graph g = GenerateChungLu({150, 6.0, 2.4, seed});
  AssignWeights(&g, WeightScheme::kUniform, seed + 1);
  Query query;
  query.k = 2;
  query.r = 5;
  query.aggregation = AggregationSpec::Sum();
  ExpectSameCommunities(NaiveSearch(g, query), ImprovedSearch(g, query),
                        "power-law seed=" + std::to_string(seed));
}

TEST_P(SumCrossCheckTest, ImprovedAblationsAgree) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(60, 160, seed);
  Query query;
  query.k = 2;
  query.r = 6;
  query.aggregation = AggregationSpec::Sum();
  const SearchResult reference = ImprovedSearch(g, query);
  ImprovedOptions no_pruning;
  no_pruning.enable_bound_pruning = false;
  ExpectSameCommunities(reference, ImprovedSearch(g, query, no_pruning),
                        "no-pruning");
  ImprovedOptions fifo;
  fifo.best_first = false;
  ExpectSameCommunities(reference, ImprovedSearch(g, query, fifo), "fifo");
  ImprovedOptions fifo_no_pruning;
  fifo_no_pruning.best_first = false;
  fifo_no_pruning.enable_bound_pruning = false;
  ExpectSameCommunities(reference,
                        ImprovedSearch(g, query, fifo_no_pruning),
                        "fifo-no-pruning");
}

TEST_P(SumCrossCheckTest, ImprovedEqualsExactEnumerationOnTinyGraphs) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(12, 26, seed);
  for (const VertexId k : {2u, 3u}) {
    Query query;
    query.k = k;
    query.r = 4;
    query.aggregation = AggregationSpec::Sum();
    const SearchResult improved = ImprovedSearch(g, query);
    const SearchResult exact = ExactSearch(g, query);
    // The deletion family's top-r values must equal the global optimum over
    // all connected k-cores (monotonicity makes best-first exact).
    ASSERT_EQ(improved.communities.size(), exact.communities.size());
    for (std::size_t i = 0; i < exact.communities.size(); ++i) {
      EXPECT_DOUBLE_EQ(improved.communities[i].influence,
                       exact.communities[i].influence)
          << "k=" << k << " rank " << i;
    }
  }
}

/// Cliques of the given sizes (the beads) plus one hub vertex joined to
/// two vertices of each bead, with seeded uniform weights. Deleting the
/// hub, or a cascade that takes it out, cuts the rest into one part per
/// bead. With `light_hub` the hub is the lightest vertex, so improved
/// search tries that deletion first.
Graph HubWithBeads(std::initializer_list<VertexId> bead_sizes,
                   std::uint64_t seed, bool light_hub) {
  GraphBuilder builder;
  VertexId next = 1;  // vertex 0 is the hub
  for (const VertexId size : bead_sizes) {
    for (VertexId a = 0; a < size; ++a) {
      for (VertexId b = a + 1; b < size; ++b) {
        builder.AddEdge(next + a, next + b);
      }
    }
    builder.AddEdge(0, next);
    builder.AddEdge(0, next + 1);
    next += size;
  }
  Graph g = builder.Build();
  AssignWeights(&g, WeightScheme::kUniform, seed);
  if (light_hub) {
    std::vector<Weight> weights(g.weights().begin(), g.weights().end());
    weights[0] = *std::min_element(weights.begin(), weights.end()) / 2;
    g.SetWeights(std::move(weights));
  }
  return g;
}

TEST_P(SumCrossCheckTest, ImprovedEqualsExactWhereDeletionsCutThreeWays) {
  const std::uint64_t seed = GetParam();
  struct Case {
    std::initializer_list<VertexId> beads;
    VertexId k;
  };
  // n <= 19: K5 beads at k = 4 (the hub has degree 6), unequal beads at
  // k = 3 so the searches around a cascade exhaust at different times.
  const Case cases[] = {{{5, 5, 5}, 4}, {{4, 5, 6}, 3}, {{4, 4, 4, 5}, 3}};
  for (const Case& c : cases) {
    for (const bool light_hub : {false, true}) {
      const Graph g = HubWithBeads(c.beads, seed, light_hub);
      for (const std::uint32_t r : {3u, 6u}) {
        Query query;
        query.k = c.k;
        query.r = r;
        query.aggregation = AggregationSpec::Sum();
        const std::string label =
            "n=" + std::to_string(g.num_vertices()) + " k=" +
            std::to_string(c.k) + " r=" + std::to_string(r) +
            " light_hub=" + std::to_string(light_hub) +
            " seed=" + std::to_string(seed);
        const SearchResult exact = ExactSearch(g, query);
        const SearchResult improved = ImprovedSearch(g, query);
        ExpectSameCommunities(exact, improved, label);
        ExpectSameCommunities(exact, NaiveSearch(g, query), label);
        EXPECT_EQ(ValidateResult(g, query, improved), "") << label;
      }
    }
  }
}

TEST_P(SumCrossCheckTest, SumSurplusAgreesAcrossSolvers) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(50, 130, seed);
  Query query;
  query.k = 2;
  query.r = 5;
  query.aggregation = AggregationSpec::SumSurplus(0.5);
  ExpectSameCommunities(NaiveSearch(g, query), ImprovedSearch(g, query),
                        "sum-surplus");
}

TEST_P(SumCrossCheckTest, TonicComponentsAgree) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(60, 140, seed);
  Query query;
  query.k = 2;
  query.r = 5;
  query.non_overlapping = true;
  query.aggregation = AggregationSpec::Sum();
  const SearchResult naive = NaiveSearch(g, query);
  const SearchResult improved = ImprovedSearch(g, query);
  ExpectSameCommunities(naive, improved, "tonic");
  EXPECT_EQ(ValidateResult(g, query, naive), "");
}

TEST_P(SumCrossCheckTest, LocalSearchValidAndBoundedByExact) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(14, 32, seed);
  Query query;
  query.k = 2;
  query.r = 3;
  query.size_limit = 5;
  for (const auto spec : {AggregationSpec::Sum(), AggregationSpec::Avg()}) {
    query.aggregation = spec;
    const SearchResult exact = ExactSearch(g, query);
    for (const bool greedy : {true, false}) {
      LocalSearchOptions options;
      options.greedy = greedy;
      const SearchResult heuristic = LocalSearch(g, query, options);
      EXPECT_EQ(ValidateResult(g, query, heuristic), "");
      if (!heuristic.communities.empty()) {
        ASSERT_FALSE(exact.communities.empty());
        EXPECT_LE(heuristic.communities[0].influence,
                  exact.communities[0].influence + 1e-12)
            << AggregationName(spec.kind) << " greedy=" << greedy;
      }
    }
  }
}

TEST_P(SumCrossCheckTest, MinPeelMatchesMaximalityFilteredEnumeration) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(11, 22, seed);
  Query query;
  query.k = 2;
  query.r = 6;
  query.aggregation = AggregationSpec::Min();
  ExactOptions options;
  options.enforce_maximality = true;
  const SearchResult exact = ExactSearch(g, query, options);
  const SearchResult peel = MinPeelSearch(g, query);
  ASSERT_EQ(exact.communities.size(), peel.communities.size())
      << "seed=" << seed;
  for (std::size_t i = 0; i < exact.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.communities[i].influence,
                     peel.communities[i].influence)
        << "seed=" << seed << " rank " << i;
    EXPECT_EQ(exact.communities[i].members, peel.communities[i].members)
        << "seed=" << seed << " rank " << i;
  }
}

TEST_P(SumCrossCheckTest, EverySolverOutputValidates) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(80, 220, seed);
  Query query;
  query.k = 3;
  query.r = 4;
  query.aggregation = AggregationSpec::Sum();
  EXPECT_EQ(ValidateResult(g, query, NaiveSearch(g, query)), "");
  EXPECT_EQ(ValidateResult(g, query, ImprovedSearch(g, query)), "");
  Query min_query = query;
  min_query.aggregation = AggregationSpec::Min();
  EXPECT_EQ(ValidateResult(g, min_query, MinPeelSearch(g, min_query)), "");
  Query max_query = query;
  max_query.aggregation = AggregationSpec::Max();
  EXPECT_EQ(
      ValidateResult(g, max_query, MaxComponentsSearch(g, max_query)), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SumCrossCheckTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808, 909, 1010));

}  // namespace
}  // namespace ticl
