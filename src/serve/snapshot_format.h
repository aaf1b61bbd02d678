// Internal definitions shared by the snapshot writer/loader (snapshot.cc)
// and the zero-copy mmap loader (mapped_snapshot.cc). Not part of the
// public API — include serve/snapshot.h or serve/mapped_snapshot.h
// instead. The byte-level layout is documented in serve/snapshot.h.

#ifndef TICL_SERVE_SNAPSHOT_FORMAT_H_
#define TICL_SERVE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace ticl::snapshot_internal {

inline constexpr char kMagic[8] = {'T', 'I', 'C', 'L', 'S', 'N', 'A', 'P'};
inline constexpr std::size_t kV2HeaderBytes = 16;
inline constexpr std::size_t kSectionEntryBytes = 24;
inline constexpr std::size_t kSectionAlignment = 8;
inline constexpr std::size_t kChecksumBytes = 8;

/// Section types of the v2 TLV table. Loaders skip unknown types, so new
/// optional sections (shard maps, ...) can be added without breaking old
/// readers of new files.
///
/// A file carries either the graph sections (1-5: a *full* snapshot) or
/// the delta sections (6-8: a *delta* snapshot — a GraphDelta recorded
/// against a parent graph identified by fingerprint). The two families
/// never mix; each loader rejects the other kind with a pointed message.
enum SectionType : std::uint32_t {
  kSectionGraphMeta = 1,  // {uint64 n, uint64 adjacency_len}, 16 bytes
  kSectionOffsets = 2,    // (n + 1) x uint64
  kSectionAdjacency = 3,  // adjacency_len x uint32
  kSectionWeights = 4,    // n x double (optional)
  kSectionCoreIndex = 5,  // 32-byte header + n x uint32 (optional)
  // Delta snapshots (serve/snapshot.h SaveDeltaSnapshot):
  kSectionDeltaMeta = 6,     // {parent fingerprint (3 x uint64),
                             //  uint64 insert_count, uint64 delete_count,
                             //  uint64 weight_update_count} = 48 bytes
  kSectionDeltaEdges = 7,    // (insert_count + delete_count) x
                             // {uint32 u, uint32 v}, inserts first
  kSectionDeltaWeights = 8,  // weight_update_count x
                             // {uint64 vertex, double weight}
};

inline constexpr std::size_t kDeltaMetaBytes = 48;

/// One raw entry of a validated v2 section table.
struct SectionRef {
  std::uint32_t type = 0;
  const unsigned char* data = nullptr;
  std::uint64_t length = 0;
};

/// Validates the v2 container framing — magic, version, section table
/// bounds and 8-byte alignment, trailing checksum — and returns the raw
/// sections. Shared by the full-snapshot and delta-snapshot readers;
/// interpretation of the section payloads is the caller's job. `data`
/// must be 8-byte aligned and outlive the refs.
bool ParseV2Table(const unsigned char* data, std::size_t size,
                  std::vector<SectionRef>* sections, std::string* error);

/// A parsed v2 image. The spans point into the caller's buffer or mapping;
/// nothing is copied.
struct ParsedSnapshot {
  std::span<const EdgeIndex> offsets;
  std::span<const VertexId> adjacency;
  std::span<const Weight> weights;            // empty when absent
  const unsigned char* core_index = nullptr;  // null when absent
  std::size_t core_index_size = 0;
};

/// Validates a complete v2 snapshot image — magic, version, section table
/// (bounds, 8-byte alignment, required sections), the trailing checksum,
/// the CSR invariants and the weight values — and fills *out with spans
/// into `data`. `data` must be 8-byte aligned and outlive the spans.
/// Unknown section types are skipped. Returns false and sets *error on any
/// failure; the error strings are specific enough to distinguish
/// truncation, corruption and version problems.
bool ParseV2(const unsigned char* data, std::size_t size, ParsedSnapshot* out,
             std::string* error);

/// The structural invariants Graph's CSR constructor assumes. Symmetry is
/// not re-verified (O(m log d) — the writer only ever saw symmetric
/// graphs); everything cheap and memory-safety-critical is. Returns "" when
/// fine, else a description.
std::string ValidateCsr(std::span<const EdgeIndex> offsets,
                        std::span<const VertexId> adjacency);

}  // namespace ticl::snapshot_internal

#endif  // TICL_SERVE_SNAPSHOT_FORMAT_H_
