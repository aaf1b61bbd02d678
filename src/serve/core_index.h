// Precomputed core-decomposition index.
//
// Every solver in src/core/ begins by materializing the maximal k-core of
// the query's k (and splits it with SubsetPeeler when it needs the
// components) — and the library primitive MaximalKCore re-runs the full
// O(n + m) bucket peel each call. That is the right trade for one-shot
// use; under the serve workload (thousands of queries with varying k over
// one immutable graph) it is pure repeated work. CoreIndex runs the decomposition once and keeps the
// core numbers. They answer every seeding call on their own: the maximal
// k-core is exactly {v : core(v) >= k}, which one branchless O(n) scan
// over the array returns already sorted, without touching the adjacency.
//
// The core-number array is either owned (decomposition-built, or
// maintained across a delta) or a view of external memory (a
// Deserialize()d index over a MappedSnapshot's core-index section). The
// array doubles as the snapshot v2 serialization format — see
// AppendSerialized() for the byte layout.
//
// The index is immutable after construction and safe to share across
// threads. It is only meaningful for a Graph with the exact fingerprint it
// was built from; IndexedMaximalKCore and Solve() TICL_CHECK that.

#ifndef TICL_SERVE_CORE_INDEX_H_
#define TICL_SERVE_CORE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace ticl {

class CoreIndex {
 public:
  /// Runs the O(n + m) decomposition. The graph must outlive the index.
  explicit CoreIndex(const Graph& g);

  CoreIndex(const CoreIndex&) = delete;
  CoreIndex& operator=(const CoreIndex&) = delete;

  /// Builds the index from already-known core numbers — the incremental
  /// maintenance path (algo/core_maintenance.h): after a delta is applied,
  /// the maintained core numbers describe the new graph, so the index
  /// stores them and skips the O(n + m) decomposition; the only other work
  /// is the O(n) degeneracy maximum. `core` must equal
  /// CoreDecomposition(g).core exactly; this is trusted here (size check
  /// only) and asserted bit-for-bit by the randomized maintenance tests.
  static std::unique_ptr<CoreIndex> FromCoreNumbers(const Graph& g,
                                                    std::vector<VertexId> core);

  /// The graph this index describes.
  const Graph& graph() const { return *g_; }

  /// Fingerprint of the graph the index was built from (persisted across
  /// serialization; what Solve() checks before trusting the index).
  const GraphFingerprint& fingerprint() const { return fingerprint_; }

  /// Largest k with a non-empty k-core (0 for edgeless graphs).
  VertexId degeneracy() const { return degeneracy_; }

  /// core_numbers()[v] = largest k such that v belongs to a k-core.
  std::span<const VertexId> core_numbers() const { return core_; }

  /// Members of the maximal k-core, sorted ascending. Identical to
  /// MaximalKCore(graph(), k), but one O(n) scan of the core numbers
  /// instead of an O(n + m) peel.
  VertexList CoreMembers(VertexId k) const;

  // -- Serialization (snapshot v2 `core_index` section payload) ------------
  //
  // Little-endian, 8-byte-aligned base required:
  //
  //   offset  size  field
  //   0       8     fingerprint.num_vertices (n)
  //   8       8     fingerprint.adjacency_len (2m)
  //   16      8     fingerprint.csr_hash
  //   24      4     degeneracy d (uint32) = max over core_numbers
  //   28      4     reserved (0)
  //   32      n*4   core_numbers (uint32), each <= d
  //
  // The payload is exactly 32 + 4n bytes.

  /// Appends the serialized payload (SerializedSize() bytes) to *out.
  void AppendSerialized(std::vector<unsigned char>* out) const;

  std::size_t SerializedSize() const;

  /// Reconstructs an index from a serialized payload, checking the size
  /// (exactly 32 + 4n), the 8-byte alignment, the stored fingerprint
  /// against `g`, every core number <= the degeneracy, and the degeneracy
  /// == the largest core number. The snapshot layer aligns sections. With
  /// copy_data = false the index views `data` in place — it must then
  /// outlive the index (the MappedSnapshot zero-copy path); with
  /// copy_data = true the array is copied and `data` may be discarded.
  /// Returns nullptr and sets *error on any validation failure.
  static std::unique_ptr<CoreIndex> Deserialize(const Graph& g,
                                                const unsigned char* data,
                                                std::size_t size,
                                                bool copy_data,
                                                std::string* error);

 private:
  CoreIndex() = default;

  const Graph* g_ = nullptr;
  GraphFingerprint fingerprint_;
  VertexId degeneracy_ = 0;
  // Owning backend; empty when core_ views external (mapped) memory.
  std::vector<VertexId> owned_core_;
  // The single source of truth for readers.
  std::span<const VertexId> core_;
};

/// The solvers' seeding helper: consults the index when one is supplied
/// (checking its fingerprint matches `g`), else falls back to the
/// from-scratch peel.
VertexList IndexedMaximalKCore(const CoreIndex* index, const Graph& g,
                               VertexId k);

}  // namespace ticl

#endif  // TICL_SERVE_CORE_INDEX_H_
