#include "algo/kcore_peeler.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "algo/core_decomposition.h"
#include "gen/erdos_renyi.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {
namespace {

using testing::AllVertices;
using testing::Members;
using testing::TwoTrianglesAndK4;

/// Reference: k-core of the induced subgraph via full decomposition.
VertexList ReferencePeel(const Graph& g, const VertexList& members,
                         VertexId k) {
  const InducedSubgraph sub = ExtractInducedSubgraph(g, members);
  const auto decomp = CoreDecomposition(sub.graph);
  VertexList out;
  for (VertexId lv = 0; lv < sub.graph.num_vertices(); ++lv) {
    if (decomp.core[lv] >= k) out.push_back(sub.to_original[lv]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SubsetPeelerTest, WholeGraphPeel) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  EXPECT_EQ(peeler.Peel(all, 2).size(), 10u);
  EXPECT_EQ(peeler.Peel(all, 3), Members({6, 7, 8, 9}));
  EXPECT_TRUE(peeler.Peel(all, 4).empty());
}

TEST(SubsetPeelerTest, CascadeThroughBridge) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Remove vertex 0 from {0..5}: triangle A unravels, B survives.
  const auto components =
      peeler.RemoveAndSplit(Members({0, 1, 2, 3, 4, 5}), 0, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({3, 4, 5}));  // 1 and 2 cascaded
}

TEST(SubsetPeelerTest, RemoveBridgeEndpointSplits) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Remove 3: triangle B loses a member and unravels; A survives.
  const auto components =
      peeler.RemoveAndSplit(Members({0, 1, 2, 3, 4, 5}), 3, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({0, 1, 2}));
}

TEST(SubsetPeelerTest, RemoveFromK4LeavesTriangle) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components =
      peeler.RemoveAndSplit(Members({6, 7, 8, 9}), 9, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({6, 7, 8}));  // nothing cascaded
}

TEST(SubsetPeelerTest, PeelThenSplitSeparatesComponents) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  const auto components = peeler.Split(peeler.Peel(all, 2));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 6u);
  EXPECT_EQ(components[1].size(), 4u);
}

TEST(SubsetPeelerTest, EmptySubset) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Peel({}, 2).empty());
  EXPECT_TRUE(peeler.Split({}).empty());
  EXPECT_TRUE(peeler.IsConnectedKCore({}, 2));
}

TEST(SubsetPeelerTest, SubsetBelowKAllPeeled) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Peel(Members({0, 1}), 2).empty());
}

TEST(SubsetPeelerTest, IsConnectedKCoreCases) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.IsConnectedKCore(Members({0, 1, 2}), 2));
  EXPECT_TRUE(peeler.IsConnectedKCore(Members({9, 6, 8, 7}), 3));  // unsorted
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({6, 7, 8, 9}), 4));
  EXPECT_TRUE(peeler.IsConnectedKCore(Members({0, 1, 2, 3, 4, 5}), 2));
  // Degrees suffice but the set is disconnected: two triangles, two edges.
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({0, 1, 2, 6, 7, 8}), 2));
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({0, 1, 4, 5}), 1));
  EXPECT_FALSE(peeler.IsConnectedKCore(Members({0, 1, 3}), 1));  // 3 isolated
}

TEST(SubsetPeelerTest, LoadDeleteAndComponentOf) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const VertexList all = AllVertices(g);
  peeler.Load(all, 2);
  EXPECT_EQ(peeler.ComponentOf(4), Members({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(peeler.ComponentOf(9), Members({6, 7, 8, 9}));
  peeler.Delete(3, 2);  // triangle B unravels
  EXPECT_FALSE(peeler.Contains(4));
  EXPECT_EQ(peeler.ComponentOf(0), Members({0, 1, 2}));
  peeler.Delete(3, 2);  // already gone: a no-op
  EXPECT_EQ(peeler.ComponentOf(2), Members({0, 1, 2}));
  peeler.Load(Members({0, 1, 2, 3}), 2);  // 3 is peeled on load
  EXPECT_FALSE(peeler.Contains(3));
  EXPECT_EQ(peeler.ComponentOf(1), Members({0, 1, 2}));
}

TEST(SubsetPeelerTest, ReusableAcrossEpochs) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(peeler.Peel(Members({6, 7, 8, 9}), 3),
              Members({6, 7, 8, 9}));
    EXPECT_EQ(peeler.Peel(Members({0, 1, 2}), 2), Members({0, 1, 2}));
  }
}

class PeelerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelerPropertyTest, PeelMatchesReferenceOnRandomSubsets) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(120, 400, seed);
  SubsetPeeler peeler(g);
  Rng rng(seed ^ 0xABCD);
  for (int trial = 0; trial < 20; ++trial) {
    VertexList members;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.NextBernoulli(0.5)) members.push_back(v);
    }
    for (const VertexId k : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(peeler.Peel(members, k), ReferencePeel(g, members, k))
          << "seed=" << seed << " trial=" << trial << " k=" << k;
    }
  }
}

TEST_P(PeelerPropertyTest, RemoveAndSplitMatchesPeelOfReducedSet) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(100, 350, seed);
  SubsetPeeler peeler(g);
  const VertexList core = MaximalKCore(g, 3);
  if (core.empty()) GTEST_SKIP() << "no 3-core at this seed";
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    const VertexId removed = core[rng.NextBounded(core.size())];
    VertexList reduced;
    for (const VertexId v : core) {
      if (v != removed) reduced.push_back(v);
    }
    // Independent oracle for the split: the parts' union is the
    // reference peel of the reduced set, every part is sorted and
    // connected (IsSubsetConnected), no edge joins two parts, and parts
    // come in order of their first member.
    const auto components = peeler.RemoveAndSplit(core, removed, 3);
    std::vector<int> part(g.num_vertices(), -1);
    VertexList survivors;
    for (std::size_t i = 0; i < components.size(); ++i) {
      const VertexList& comp = components[i];
      ASSERT_FALSE(comp.empty());
      EXPECT_TRUE(std::is_sorted(comp.begin(), comp.end()));
      EXPECT_TRUE(IsSubsetConnected(g, comp));
      if (i > 0) {
        EXPECT_LT(components[i - 1].front(), comp.front());
      }
      for (const VertexId v : comp) part[v] = static_cast<int>(i);
      survivors.insert(survivors.end(), comp.begin(), comp.end());
    }
    std::sort(survivors.begin(), survivors.end());
    EXPECT_EQ(survivors, ReferencePeel(g, reduced, 3));
    for (const VertexId v : survivors) {
      for (const VertexId nbr : g.neighbors(v)) {
        if (part[nbr] >= 0) {
          EXPECT_EQ(part[nbr], part[v]) << v << "-" << nbr;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelerPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ticl
