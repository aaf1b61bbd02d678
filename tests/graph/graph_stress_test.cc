// Differential stress tests: GraphBuilder + Graph accessors checked
// against a dense adjacency-matrix reference on randomized inputs
// containing duplicates and self-loops.

#include <vector>

#include <gtest/gtest.h>

#include "algo/kcore_peeler.h"
#include "graph/graph_builder.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {
namespace {

class GraphStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphStressTest, BuilderMatchesAdjacencyMatrix) {
  Rng rng(GetParam());
  const auto n = static_cast<VertexId>(rng.NextInRange(2, 40));
  const int inserts = static_cast<int>(rng.NextInRange(0, 400));

  std::vector<std::vector<bool>> matrix(n, std::vector<bool>(n, false));
  GraphBuilder builder;
  builder.SetNumVertices(n);
  for (int i = 0; i < inserts; ++i) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    builder.AddEdge(u, v);  // duplicates and self-loops included on purpose
    if (u != v) {
      matrix[u][v] = true;
      matrix[v][u] = true;
    }
  }
  const Graph g = builder.Build();

  ASSERT_EQ(g.num_vertices(), n);
  std::uint64_t expected_edges = 0;
  for (VertexId u = 0; u < n; ++u) {
    VertexId expected_degree = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (matrix[u][v]) {
        ++expected_degree;
        if (u < v) ++expected_edges;
      }
      EXPECT_EQ(g.HasEdge(u, v), matrix[u][v])
          << "edge " << u << "-" << v;
    }
    EXPECT_EQ(g.degree(u), expected_degree) << "vertex " << u;
  }
  EXPECT_EQ(g.num_edges(), expected_edges);
}

TEST_P(GraphStressTest, ComponentsMatchMatrixFloodFill) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  const auto n = static_cast<VertexId>(rng.NextInRange(2, 30));
  GraphBuilder builder;
  builder.SetNumVertices(n);
  std::vector<std::vector<bool>> matrix(n, std::vector<bool>(n, false));
  const int inserts = static_cast<int>(rng.NextInRange(0, 60));
  for (int i = 0; i < inserts; ++i) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    builder.AddEdge(u, v);
    if (u != v) {
      matrix[u][v] = true;
      matrix[v][u] = true;
    }
  }
  const Graph g = builder.Build();

  // Reference flood fill over the matrix.
  std::vector<VertexId> reference(n, kInvalidVertex);
  VertexId reference_count = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (reference[start] != kInvalidVertex) continue;
    const VertexId id = reference_count++;
    std::vector<VertexId> stack{start};
    reference[start] = id;
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (VertexId v = 0; v < n; ++v) {
        if (matrix[u][v] && reference[v] == kInvalidVertex) {
          reference[v] = id;
          stack.push_back(v);
        }
      }
    }
  }

  // Both number components in order of their smallest vertex, so the
  // split of the whole vertex set must reproduce the labels exactly.
  SubsetPeeler peeler(g);
  const std::vector<VertexList> components =
      peeler.Split(testing::AllVertices(g));
  ASSERT_EQ(components.size(), reference_count);
  std::size_t covered = 0;
  for (VertexId id = 0; id < reference_count; ++id) {
    for (const VertexId v : components[id]) {
      EXPECT_EQ(reference[v], id) << "vertex " << v;
    }
    covered += components[id].size();
  }
  EXPECT_EQ(covered, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphStressTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ticl
