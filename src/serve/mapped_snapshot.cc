#include "serve/mapped_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/snapshot_format.h"
#include "util/check.h"

namespace ticl {

namespace fmt = snapshot_internal;

std::unique_ptr<MappedSnapshot> MappedSnapshot::Open(const std::string& path,
                                                     std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "snapshot: cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    *error = "snapshot: cannot stat " + path;
    ::close(fd);
    return nullptr;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < fmt::kV2HeaderBytes + fmt::kChecksumBytes) {
    *error = "snapshot: truncated file (no room for header)";
    ::close(fd);
    return nullptr;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    *error = "snapshot: mmap failed for " + path;
    return nullptr;
  }

  std::unique_ptr<MappedSnapshot> snapshot(new MappedSnapshot());
  snapshot->data_ = static_cast<unsigned char*>(map);
  snapshot->size_ = size;

  fmt::ParsedSnapshot parsed;
  if (!fmt::ParseV2(snapshot->data_, size, &parsed, error)) return nullptr;
  snapshot->graph_ =
      Graph::FromExternal(parsed.offsets, parsed.adjacency, parsed.weights);
  if (parsed.core_index != nullptr) {
    // A section that fails validation (stale or foreign despite the
    // checksum) degrades to "no index" rather than failing the open —
    // the same recovery the copy-load path applies, so a snapshot never
    // serves in one mode and is rejected in the other. Consumers rebuild
    // the index when has_core_index() is false.
    std::string index_error;
    snapshot->index_ =
        CoreIndex::Deserialize(snapshot->graph_, parsed.core_index,
                               parsed.core_index_size,
                               /*copy_data=*/false, &index_error);
  }
  return snapshot;
}

MappedSnapshot::~MappedSnapshot() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

const CoreIndex& MappedSnapshot::core_index() const {
  TICL_CHECK_MSG(index_ != nullptr, "snapshot has no core_index section");
  return *index_;
}

}  // namespace ticl
