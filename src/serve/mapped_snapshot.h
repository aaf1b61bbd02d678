// Zero-copy snapshot access: mmap the file once, verify the checksum once,
// and serve the CSR arrays, weights and persisted CoreIndex straight from
// the mapping — no allocation proportional to the graph, no copy, no
// re-decomposition. This is what makes engine start-up on a big snapshot
// effectively instant: the only O(n + m) work is the single linear
// validation pass, and the page cache shares the bytes between every
// process serving the same snapshot.
//
// Snapshot format v2's 8-byte-aligned section table is what makes the
// direct pointer casts well-defined.
//
// Lifetime: graph() and core_index() view the mapping, so they are valid
// exactly as long as the MappedSnapshot. The object is handed out by
// unique_ptr and is neither copyable nor movable, so those views can never
// be silently detached from the mapping they read.

#ifndef TICL_SERVE_MAPPED_SNAPSHOT_H_
#define TICL_SERVE_MAPPED_SNAPSHOT_H_

#include <cstddef>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "serve/core_index.h"

namespace ticl {

class MappedSnapshot {
 public:
  /// Maps `path` read-only and validates it (magic, version 2, section
  /// table, checksum, CSR invariants). A core_index section that fails
  /// its own validation is dropped (has_core_index() == false) rather
  /// than failing the open, matching the copy-load recovery. Returns
  /// nullptr and sets *error on any other failure.
  static std::unique_ptr<MappedSnapshot> Open(const std::string& path,
                                              std::string* error);

  ~MappedSnapshot();
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;
  MappedSnapshot(MappedSnapshot&&) = delete;
  MappedSnapshot& operator=(MappedSnapshot&&) = delete;

  /// Span-backed view over the mapped CSR arrays (and weights when the
  /// snapshot has them). Reading it faults pages in on demand.
  const Graph& graph() const { return graph_; }

  /// True when the snapshot carries a persisted core index.
  bool has_core_index() const { return index_ != nullptr; }

  /// The persisted index, viewing the mapping. Requires has_core_index().
  const CoreIndex& core_index() const;

  /// The raw mapping — exposed so tests can assert the zero-copy property
  /// (the Graph's spans point into [data(), data() + size())).
  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedSnapshot() = default;

  unsigned char* data_ = nullptr;  // mmap base (page aligned)
  std::size_t size_ = 0;
  Graph graph_;
  std::unique_ptr<CoreIndex> index_;
};

}  // namespace ticl

#endif  // TICL_SERVE_MAPPED_SNAPSHOT_H_
