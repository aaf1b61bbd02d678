// Shared graph fixtures for the test suite.
//
// TwoTrianglesAndK4() is the canonical hand-analyzed instance; its complete
// ground truth (per aggregation, k = 2) is worked out in the comments below
// and asserted across the solver tests.

#ifndef TICL_TESTS_TESTING_BUILDERS_H_
#define TICL_TESTS_TESTING_BUILDERS_H_

#include <initializer_list>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"

namespace ticl::testing {

/// Materializes a span accessor (Graph::offsets(), CoreIndex::core_numbers()
/// and friends return views since the zero-copy refactor) so it can be
/// EXPECT_EQ'd against vectors.
template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

inline Graph PathGraph(VertexId n) {
  GraphBuilder b;
  b.SetNumVertices(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return b.Build();
}

inline Graph CycleGraph(VertexId n) {
  GraphBuilder b;
  b.SetNumVertices(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  if (n >= 3) b.AddEdge(n - 1, 0);
  return b.Build();
}

inline Graph CompleteGraph(VertexId n) {
  GraphBuilder b;
  b.SetNumVertices(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return b.Build();
}

inline Graph StarGraph(VertexId leaves) {
  GraphBuilder b;
  b.SetNumVertices(leaves + 1);
  for (VertexId v = 1; v <= leaves; ++v) b.AddEdge(0, v);
  return b.Build();
}

inline VertexList Members(std::initializer_list<VertexId> ids) {
  return VertexList(ids);
}

/// 0, 1, ..., n - 1: the whole vertex set as a sorted member list.
inline VertexList AllVertices(const Graph& g) {
  VertexList all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return all;
}

// The canonical 10-vertex instance. Structure:
//   triangle A = {0, 1, 2}, weights 10 / 20 / 30
//   triangle B = {3, 4, 5}, weights  5 /  6 /  7
//   bridge edge 2-3 joins A and B into one component
//   K4 = {6, 7, 8, 9}, weights 1 / 2 / 3 / 100 (separate component)
//
// Ground truth at k = 2 (hand-derived; the family of connected 2-core
// subgraphs reachable by deletions is: {0..5}, {0,1,2}, {3,4,5}, K4 and its
// four triangles):
//   sum,  top-5: K4=106, {7,8,9}=105, {6,8,9}=104, {6,7,9}=103, {0..5}=78
//   avg,  top-3 (exact enumeration): {7,8,9}=35, {6,8,9}=104/3,
//                                    {6,7,9}=103/3
//   min,  peel snapshots in order: K4@1, {7,8,9}@2, {0..5}@5, {0,1,2}@10;
//         top-2 = [{0,1,2}=10, {0..5}=5]
//   min,  TONIC top-3 = [{0,1,2}=10, {3,4,5}=5, {7,8,9}=2]
//   max,  top-2 = [K4=100, {0..5}=30]
//   sum with s=3 (exact): 105, 104, 103;  s=4 (exact): 106, 105, 104
inline Graph TwoTrianglesAndK4() {
  GraphBuilder b;
  b.SetNumVertices(10);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  b.AddEdge(2, 3);  // bridge
  b.AddEdge(6, 7);
  b.AddEdge(6, 8);
  b.AddEdge(6, 9);
  b.AddEdge(7, 8);
  b.AddEdge(7, 9);
  b.AddEdge(8, 9);
  Graph g = b.Build();
  g.SetWeights({10, 20, 30, 5, 6, 7, 1, 2, 3, 100});
  return g;
}

}  // namespace ticl::testing

#endif  // TICL_TESTS_TESTING_BUILDERS_H_
