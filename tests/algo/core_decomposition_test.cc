#include "algo/core_decomposition.h"

#include <gtest/gtest.h>

#include "algo/kcore_peeler.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::CompleteGraph;
using testing::CycleGraph;
using testing::Members;
using testing::PathGraph;
using testing::StarGraph;
using testing::TwoTrianglesAndK4;

TEST(CoreDecompositionTest, PathIsOneCore) {
  const auto d = CoreDecomposition(PathGraph(5));
  for (const VertexId c : d.core) EXPECT_EQ(c, 1u);
  EXPECT_EQ(d.degeneracy, 1u);
}

TEST(CoreDecompositionTest, CycleIsTwoCore) {
  const auto d = CoreDecomposition(CycleGraph(7));
  for (const VertexId c : d.core) EXPECT_EQ(c, 2u);
  EXPECT_EQ(d.degeneracy, 2u);
}

TEST(CoreDecompositionTest, CompleteGraphCore) {
  const auto d = CoreDecomposition(CompleteGraph(6));
  for (const VertexId c : d.core) EXPECT_EQ(c, 5u);
  EXPECT_EQ(d.degeneracy, 5u);
}

TEST(CoreDecompositionTest, StarIsOneCore) {
  const auto d = CoreDecomposition(StarGraph(8));
  for (const VertexId c : d.core) EXPECT_EQ(c, 1u);
}

TEST(CoreDecompositionTest, IsolatedVerticesZeroCore) {
  GraphBuilder b;
  b.SetNumVertices(3);
  b.AddEdge(0, 1);
  const auto d = CoreDecomposition(b.Build());
  EXPECT_EQ(d.core[2], 0u);
  EXPECT_EQ(d.core[0], 1u);
}

TEST(CoreDecompositionTest, EmptyGraph) {
  const auto d = CoreDecomposition(Graph());
  EXPECT_TRUE(d.core.empty());
  EXPECT_EQ(d.degeneracy, 0u);
}

TEST(CoreDecompositionTest, FixtureCores) {
  const auto d = CoreDecomposition(TwoTrianglesAndK4());
  // Triangles + bridge: everything is 2-core. K4: 3-core.
  for (VertexId v = 0; v <= 5; ++v) EXPECT_EQ(d.core[v], 2u) << v;
  for (VertexId v = 6; v <= 9; ++v) EXPECT_EQ(d.core[v], 3u) << v;
  EXPECT_EQ(d.degeneracy, 3u);
}

TEST(CoreDecompositionTest, CliqueWithTail) {
  // K4 {0..3} plus tail 3-4-5: tail is 1-core, clique 3-core.
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  const auto d = CoreDecomposition(b.Build());
  EXPECT_EQ(d.core[0], 3u);
  EXPECT_EQ(d.core[3], 3u);
  EXPECT_EQ(d.core[4], 1u);
  EXPECT_EQ(d.core[5], 1u);
}

TEST(MaximalKCoreTest, FixtureLevels) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_EQ(MaximalKCore(g, 1).size(), 10u);
  EXPECT_EQ(MaximalKCore(g, 2).size(), 10u);
  EXPECT_EQ(MaximalKCore(g, 3), Members({6, 7, 8, 9}));
  EXPECT_TRUE(MaximalKCore(g, 4).empty());
}

TEST(MaximalKCoreTest, KCorePropertyHolds) {
  const Graph g = GenerateChungLu({2000, 8.0, 2.5, 7});
  for (const VertexId k : {2u, 3u, 4u}) {
    const VertexList core = MaximalKCore(g, k);
    std::vector<std::uint8_t> in_core(g.num_vertices(), 0);
    for (const VertexId v : core) in_core[v] = 1;
    for (const VertexId v : core) {
      VertexId deg = 0;
      for (const VertexId nbr : g.neighbors(v)) deg += in_core[nbr];
      EXPECT_GE(deg, k);
    }
  }
}

TEST(KCoreComponentsTest, FixtureSplit) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components2 = peeler.Split(MaximalKCore(g, 2));
  ASSERT_EQ(components2.size(), 2u);
  EXPECT_EQ(components2[0], Members({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(components2[1], Members({6, 7, 8, 9}));
  const auto components3 = peeler.Split(MaximalKCore(g, 3));
  ASSERT_EQ(components3.size(), 1u);
  EXPECT_EQ(components3[0], Members({6, 7, 8, 9}));
}

class CoreCrossCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreCrossCheckTest, BucketMatchesNaiveReference) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(200, 600, seed);
  const auto fast = CoreDecomposition(g);
  const auto slow = CoreDecompositionNaive(g);
  EXPECT_EQ(fast.degeneracy, slow.degeneracy);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(fast.core[v], slow.core[v]) << "vertex " << v;
  }
}

TEST_P(CoreCrossCheckTest, BucketMatchesNaiveOnPowerLaw) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateChungLu({300, 6.0, 2.3, seed});
  const auto fast = CoreDecomposition(g);
  const auto slow = CoreDecompositionNaive(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(fast.core[v], slow.core[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreCrossCheckTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ticl
