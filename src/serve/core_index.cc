#include "serve/core_index.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "algo/core_decomposition.h"
#include "util/check.h"

namespace ticl {

namespace {

constexpr std::size_t kSerializedHeaderBytes = 32;

/// Appends `value`'s bytes (little-endian on every supported target).
template <typename T>
void AppendValue(std::vector<unsigned char>* out, T value) {
  const auto* p = reinterpret_cast<const unsigned char*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadValue(const unsigned char* data, std::size_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

}  // namespace

CoreIndex::CoreIndex(const Graph& g) : g_(&g), fingerprint_(g.fingerprint()) {
  CoreDecompositionResult decomp = CoreDecomposition(g);
  owned_core_ = std::move(decomp.core);
  degeneracy_ = decomp.degeneracy;
  core_ = owned_core_;
}

std::unique_ptr<CoreIndex> CoreIndex::FromCoreNumbers(
    const Graph& g, std::vector<VertexId> core) {
  TICL_CHECK_MSG(core.size() == g.num_vertices(),
                 "core numbers do not match the graph");
  std::unique_ptr<CoreIndex> index(new CoreIndex());
  index->g_ = &g;
  index->fingerprint_ = g.fingerprint();
  index->owned_core_ = std::move(core);
  index->core_ = index->owned_core_;
  if (!index->core_.empty()) {
    index->degeneracy_ = *std::max_element(index->core_.begin(),
                                           index->core_.end());
  }
  return index;
}

VertexList CoreIndex::CoreMembers(VertexId k) const {
  TICL_CHECK_MSG(k >= 1, "CoreIndex answers k >= 1");
  if (k > degeneracy_) return {};
  return VerticesWithCoreAtLeast(core_, k);
}

std::size_t CoreIndex::SerializedSize() const {
  return kSerializedHeaderBytes + core_.size() * sizeof(VertexId);
}

void CoreIndex::AppendSerialized(std::vector<unsigned char>* out) const {
  out->reserve(out->size() + SerializedSize());
  AppendValue(out, fingerprint_.num_vertices);
  AppendValue(out, fingerprint_.adjacency_len);
  AppendValue(out, fingerprint_.csr_hash);
  AppendValue(out, static_cast<std::uint32_t>(degeneracy_));
  AppendValue(out, std::uint32_t{0});  // reserved
  const auto* p = reinterpret_cast<const unsigned char*>(core_.data());
  out->insert(out->end(), p, p + core_.size() * sizeof(VertexId));
}

std::unique_ptr<CoreIndex> CoreIndex::Deserialize(const Graph& g,
                                                  const unsigned char* data,
                                                  std::size_t size,
                                                  bool copy_data,
                                                  std::string* error) {
  const auto fail = [error](const char* what) -> std::unique_ptr<CoreIndex> {
    *error = std::string("core index: ") + what;
    return nullptr;
  };
  if (size < kSerializedHeaderBytes) return fail("payload too small");
  const std::uint64_t n = ReadValue<std::uint64_t>(data, 0);
  // n is checked against the graph below; bound it by the payload first so
  // the size arithmetic cannot wrap on a crafted header.
  if (n > (size - kSerializedHeaderBytes) / sizeof(VertexId) ||
      size != kSerializedHeaderBytes + n * sizeof(VertexId)) {
    return fail("payload size is not 32 + 4n bytes");
  }
  // The core numbers are read through a span, so the base must be 8-byte
  // aligned (the snapshot layer aligns sections).
  if (reinterpret_cast<std::uintptr_t>(data) % 8 != 0) {
    return fail("payload not 8-byte aligned");
  }

  GraphFingerprint stored;
  stored.num_vertices = n;
  stored.adjacency_len = ReadValue<std::uint64_t>(data, 8);
  stored.csr_hash = ReadValue<std::uint64_t>(data, 16);
  if (!(stored == g.fingerprint())) {
    return fail("fingerprint does not match the graph (stale or foreign "
                "index)");
  }
  const auto degeneracy = ReadValue<std::uint32_t>(data, 24);
  const std::span<const VertexId> core(
      reinterpret_cast<const VertexId*>(data + kSerializedHeaderBytes),
      static_cast<std::size_t>(n));
  VertexId max_core = 0;
  for (const VertexId c : core) {
    if (c > degeneracy) return fail("core number exceeds degeneracy");
    max_core = std::max(max_core, c);
  }
  if (max_core != degeneracy) {
    return fail("degeneracy is not the largest core number");
  }

  std::unique_ptr<CoreIndex> index(new CoreIndex());
  index->g_ = &g;
  index->fingerprint_ = stored;
  index->degeneracy_ = static_cast<VertexId>(degeneracy);
  if (copy_data) {
    index->owned_core_.assign(core.begin(), core.end());
    index->core_ = index->owned_core_;
  } else {
    index->core_ = core;
  }
  return index;
}

VertexList IndexedMaximalKCore(const CoreIndex* index, const Graph& g,
                               VertexId k) {
  if (index == nullptr) return MaximalKCore(g, k);
  TICL_CHECK_MSG(index->fingerprint() == g.fingerprint(),
                 "CoreIndex was built for a different graph");
  return index->CoreMembers(k);
}

}  // namespace ticl
