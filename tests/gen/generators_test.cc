#include <algorithm>

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "algo/core_decomposition.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/dataset_suite.h"
#include "gen/erdos_renyi.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::ToVector;

TEST(ErdosRenyiTest, ExactEdgeCount) {
  const Graph g = GenerateErdosRenyi(100, 250, 1);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 250u);
}

TEST(ErdosRenyiTest, Deterministic) {
  const Graph a = GenerateErdosRenyi(50, 100, 7);
  const Graph b = GenerateErdosRenyi(50, 100, 7);
  EXPECT_EQ(ToVector(a.adjacency()), ToVector(b.adjacency()));
  EXPECT_EQ(ToVector(a.offsets()), ToVector(b.offsets()));
}

TEST(ErdosRenyiTest, SeedsDiffer) {
  const Graph a = GenerateErdosRenyi(50, 100, 1);
  const Graph b = GenerateErdosRenyi(50, 100, 2);
  EXPECT_NE(ToVector(a.adjacency()), ToVector(b.adjacency()));
}

TEST(ErdosRenyiTest, NoSelfLoopsOrDuplicates) {
  const Graph g = GenerateErdosRenyi(40, 150, 3);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), v) == nbrs.end());
  }
}

TEST(ErdosRenyiTest, ClampToCompleteGraph) {
  const Graph g = GenerateErdosRenyi(6, 1000000, 1);
  EXPECT_EQ(g.num_edges(), 15u);  // C(6,2)
}

TEST(ErdosRenyiTest, TinyAndEmptyCases) {
  EXPECT_EQ(GenerateErdosRenyi(0, 10, 1).num_vertices(), 0u);
  EXPECT_EQ(GenerateErdosRenyi(1, 10, 1).num_edges(), 0u);
}

TEST(BarabasiAlbertTest, SizesAndMinDegree) {
  const VertexId n = 500;
  const VertexId m0 = 3;
  const Graph g = GenerateBarabasiAlbert(n, m0, 11);
  EXPECT_EQ(g.num_vertices(), n);
  // Seed clique C(4,2)=6 edges + (n - 4) * 3 attachments.
  EXPECT_EQ(g.num_edges(), 6u + (n - 4) * 3u);
  for (VertexId v = 0; v < n; ++v) EXPECT_GE(g.degree(v), m0);
}

TEST(BarabasiAlbertTest, Connected) {
  const Graph g = GenerateBarabasiAlbert(300, 2, 5);
  EXPECT_TRUE(IsSubsetConnected(g, testing::AllVertices(g)));
}

TEST(BarabasiAlbertTest, Deterministic) {
  const Graph a = GenerateBarabasiAlbert(100, 2, 9);
  const Graph b = GenerateBarabasiAlbert(100, 2, 9);
  EXPECT_EQ(ToVector(a.adjacency()), ToVector(b.adjacency()));
}

TEST(BarabasiAlbertTest, HubsEmerge) {
  const Graph g = GenerateBarabasiAlbert(2000, 2, 13);
  // Preferential attachment: max degree far above the mean (~4).
  EXPECT_GT(g.max_degree(), 25u);
}

TEST(ChungLuTest, Deterministic) {
  const ChungLuOptions options{500, 8.0, 2.5, 21};
  const Graph a = GenerateChungLu(options);
  const Graph b = GenerateChungLu(options);
  EXPECT_EQ(ToVector(a.adjacency()), ToVector(b.adjacency()));
}

TEST(ChungLuTest, AverageDegreeNearTarget) {
  const Graph g = GenerateChungLu({20000, 10.0, 2.5, 31});
  // Duplicate discards push the realized average below target; allow 35%.
  EXPECT_GT(g.average_degree(), 6.5);
  EXPECT_LT(g.average_degree(), 10.5);
}

TEST(ChungLuTest, PowerLawTail) {
  const Graph g = GenerateChungLu({20000, 8.0, 2.3, 41});
  // Heavy tail: the hub degree dwarfs the average.
  EXPECT_GT(static_cast<double>(g.max_degree()),
            12.0 * g.average_degree());
}

TEST(ChungLuTest, GammaShapesTail) {
  // Smaller gamma -> heavier tail -> larger hubs, other params equal.
  const Graph heavy = GenerateChungLu({20000, 8.0, 2.1, 51});
  const Graph light = GenerateChungLu({20000, 8.0, 2.9, 51});
  EXPECT_GT(heavy.max_degree(), light.max_degree());
}

TEST(ChungLuTest, TinyGraphs) {
  EXPECT_EQ(GenerateChungLu({0, 5.0, 2.5, 1}).num_vertices(), 0u);
  EXPECT_EQ(GenerateChungLu({1, 5.0, 2.5, 1}).num_edges(), 0u);
}

TEST(DatasetSuiteTest, AllStandInsListed) {
  EXPECT_EQ(AllStandIns().size(), 6u);
  EXPECT_EQ(StandInName(AllStandIns().front()), "email");
  EXPECT_EQ(StandInName(AllStandIns().back()), "friendster");
}

TEST(DatasetSuiteTest, SpecsMirrorPaperOrdering) {
  // Relative ordering by n and the Orkut density spike must mirror
  // Table III.
  const auto email = GetDatasetSpec(StandIn::kEmail, 1.0);
  const auto dblp = GetDatasetSpec(StandIn::kDblp, 1.0);
  const auto orkut = GetDatasetSpec(StandIn::kOrkut, 1.0);
  const auto friendster = GetDatasetSpec(StandIn::kFriendster, 1.0);
  EXPECT_LT(email.num_vertices, dblp.num_vertices);
  EXPECT_LT(dblp.num_vertices, friendster.num_vertices);
  EXPECT_GT(orkut.average_degree, friendster.average_degree);
  EXPECT_GT(friendster.average_degree, dblp.average_degree);
  EXPECT_TRUE(orkut.large);
  EXPECT_FALSE(email.large);
  EXPECT_EQ(email.paper_vertices, 36692u);
  EXPECT_EQ(friendster.paper_edges, 1806067135u);
}

TEST(DatasetSuiteTest, ScaleMultipliesVertices) {
  const auto base = GetDatasetSpec(StandIn::kEmail, 1.0);
  const auto half = GetDatasetSpec(StandIn::kEmail, 0.5);
  const auto twice = GetDatasetSpec(StandIn::kEmail, 2.0);
  EXPECT_EQ(half.num_vertices, base.num_vertices / 2);
  EXPECT_EQ(twice.num_vertices, base.num_vertices * 2);
}

TEST(DatasetSuiteTest, GenerationMatchesSpec) {
  const Graph g = GenerateStandIn(StandIn::kEmail, 0.25);
  const auto spec = GetDatasetSpec(StandIn::kEmail, 0.25);
  EXPECT_EQ(g.num_vertices(), spec.num_vertices);
  EXPECT_GT(g.average_degree(), spec.average_degree * 0.5);
}

TEST(DatasetSuiteTest, StandInsHaveUsableCores) {
  // Every stand-in must contain the k-cores its paper group is benchmarked
  // at (k = 4 small, larger k for the large group).
  for (const StandIn dataset : AllStandIns()) {
    const Graph g = GenerateStandIn(dataset, 0.25);
    const auto decomp = CoreDecomposition(g);
    const auto spec = GetDatasetSpec(dataset, 0.25);
    EXPECT_GE(decomp.degeneracy, spec.large ? 10u : 4u)
        << spec.name << " kmax=" << decomp.degeneracy;
  }
}

}  // namespace
}  // namespace ticl
