#include "algo/kcore_peeler.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace ticl {

SubsetPeeler::SubsetPeeler(const Graph& g)
    : g_(&g),
      member_epoch_(g.num_vertices(), 0),
      degree_(g.num_vertices(), 0),
      visited_(g.num_vertices(), 0) {}

void SubsetPeeler::Stamp(std::span<const VertexId> members) {
  ++epoch_;
  for (const VertexId v : members) {
    TICL_DCHECK(v < g_->num_vertices());
    TICL_CHECK_MSG(member_epoch_[v] != epoch_, "duplicate vertex in subset");
    member_epoch_[v] = epoch_;
  }
}

void SubsetPeeler::Cascade(VertexId k) {
  while (!queue_.empty()) {
    const VertexId v = queue_.back();
    queue_.pop_back();
    if (!Contains(v)) continue;
    member_epoch_[v] = 0;  // epochs start at 1, so 0 is never current
    for (const VertexId nbr : g_->neighbors(v)) {
      if (Contains(nbr) && --degree_[nbr] < k) queue_.push_back(nbr);
    }
  }
}

void SubsetPeeler::Load(const VertexList& members, VertexId k) {
  Stamp(members);
  queue_.clear();
  for (const VertexId v : members) {
    VertexId d = 0;
    for (const VertexId nbr : g_->neighbors(v)) d += Contains(nbr);
    degree_[v] = d;
    if (d < k) queue_.push_back(v);
  }
  Cascade(k);
}

void SubsetPeeler::Delete(VertexId u, VertexId k) {
  queue_.assign(1, u);
  Cascade(k);
}

std::size_t SubsetPeeler::MarkComponent(VertexId start) {
  const std::uint64_t stamp = ++visit_;
  visited_[start] = stamp;
  queue_.assign(1, start);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    for (const VertexId nbr : g_->neighbors(queue_[head])) {
      if (Contains(nbr) && visited_[nbr] != stamp) {
        visited_[nbr] = stamp;
        queue_.push_back(nbr);
      }
    }
  }
  return queue_.size();
}

VertexList SubsetPeeler::ComponentOf(VertexId u) {
  TICL_DCHECK(Contains(u));
  MarkComponent(u);
  VertexList component(queue_.begin(), queue_.end());
  std::sort(component.begin(), component.end());
  return component;
}

std::vector<VertexList> SubsetPeeler::SplitAroundCascade(
    std::span<const VertexId> members) {
  // Every component of the survivors touches a removed vertex, because
  // `members` is connected. So one BFS from each surviving neighbour of a
  // removed vertex finds them all. The searches share one FIFO queue, so
  // they advance level by level together; two that meet merge (union-find
  // over search ids). A merged group with no vertex left to scan has
  // exhausted its component. Once at most one group is still open, every
  // survivor outside the exhausted groups is in that group's component, so
  // the search stops there.
  const std::uint64_t base = visit_;  // search i stamps base + 1 + i
  queue_.clear();
  std::size_t survivors = 0;
  for (const VertexId v : members) {
    if (Contains(v)) {
      ++survivors;
      continue;
    }
    for (const VertexId nbr : g_->neighbors(v)) {
      if (!Contains(nbr) || visited_[nbr] > base) continue;
      visited_[nbr] = base + 1 + queue_.size();
      queue_.push_back(nbr);
    }
  }
  const std::size_t searches = queue_.size();
  visit_ = base + searches;
  TICL_DCHECK(survivors == 0 || searches > 0);

  // Per root: `pending` counts its queued vertices not yet scanned (0 once
  // exhausted), `size` every vertex it has reached.
  std::vector<std::size_t> group(searches);
  std::vector<std::size_t> pending(searches, 1);
  std::vector<std::size_t> size(searches, 1);
  std::iota(group.begin(), group.end(), std::size_t{0});
  const auto find = [&group](std::size_t i) {
    while (group[i] != i) i = group[i] = group[group[i]];
    return i;
  };
  std::size_t open = searches;
  for (std::size_t head = 0; open > 1; ++head) {
    const VertexId u = queue_[head];
    const std::size_t mine = find(visited_[u] - base - 1);
    for (const VertexId nbr : g_->neighbors(u)) {
      if (!Contains(nbr)) continue;
      if (visited_[nbr] <= base) {
        visited_[nbr] = base + 1 + mine;
        queue_.push_back(nbr);
        ++pending[mine];
        ++size[mine];
        continue;
      }
      const std::size_t theirs = find(visited_[nbr] - base - 1);
      if (theirs == mine) continue;
      // An exhausted group has no unscanned neighbour, so it never meets
      // another search.
      TICL_DCHECK(pending[theirs] > 0);
      group[theirs] = mine;
      pending[mine] += pending[theirs];
      size[mine] += size[theirs];
      --open;
    }
    if (--pending[mine] == 0) --open;
  }

  // Deal the members out in their own (ascending) order, so every
  // component comes out sorted and in order of its first member.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t rest = survivors;  // survivors outside exhausted groups
  for (std::size_t i = 0; i < searches; ++i) {
    if (group[i] == i && pending[i] == 0) rest -= size[i];
  }
  std::vector<std::size_t> slot(searches, kNone);  // root -> component
  std::size_t open_slot = kNone;
  std::vector<VertexList> components;
  for (const VertexId v : members) {
    if (!Contains(v)) continue;
    std::size_t* where = &open_slot;
    std::size_t reserve = rest;
    if (visited_[v] > base) {
      const std::size_t root = find(visited_[v] - base - 1);
      if (pending[root] == 0) {
        where = &slot[root];
        reserve = size[root];
      }
    }
    if (*where == kNone) {
      *where = components.size();
      components.emplace_back().reserve(reserve);
    }
    components[*where].push_back(v);
  }
  return components;
}

VertexList SubsetPeeler::Peel(const VertexList& members, VertexId k) {
  Load(members, k);
  VertexList survivors;
  for (const VertexId v : members) {
    if (Contains(v)) survivors.push_back(v);
  }
  return survivors;
}

std::vector<VertexList> SubsetPeeler::Split(
    std::span<const VertexId> members) {
  Stamp(members);
  // Label each component with its BFS stamp, then deal the members out in
  // their own (ascending) order, so every component comes out sorted.
  const std::uint64_t base = visit_;
  std::vector<VertexList> components;
  for (const VertexId start : members) {
    if (visited_[start] > base) continue;
    components.emplace_back().reserve(MarkComponent(start));
  }
  for (const VertexId v : members) {
    components[visited_[v] - base - 1].push_back(v);
  }
  return components;
}

std::vector<VertexList> SubsetPeeler::RemoveAndSplit(
    const VertexList& members, VertexId removed, VertexId k) {
  TICL_DCHECK(std::find(members.begin(), members.end(), removed) !=
              members.end());
  Load(members, k);
  Delete(removed, k);
  return SplitAroundCascade(members);
}

bool SubsetPeeler::IsConnectedKCore(std::span<const VertexId> members,
                                    VertexId k) {
  if (members.empty()) return true;
  Stamp(members);
  for (const VertexId v : members) {
    VertexId d = 0;
    for (const VertexId nbr : g_->neighbors(v)) d += Contains(nbr);
    if (d < k) return false;
  }
  return MarkComponent(members.front()) == members.size();
}

VertexList SubsetPeeler::NearestNeighbors(
    VertexId seed, std::size_t limit, std::span<const std::uint8_t> allowed) {
  VertexList collected;
  if (limit == 0) return collected;
  TICL_CHECK(seed < g_->num_vertices());
  TICL_CHECK(allowed.size() == g_->num_vertices());
  TICL_CHECK_MSG(allowed[seed] != 0, "seed filtered out by `allowed`");
  // `collected` doubles as the FIFO frontier: entries past `head` are the
  // vertices whose neighbours are not yet scanned.
  const std::uint64_t stamp = ++visit_;
  visited_[seed] = stamp;
  collected.push_back(seed);
  for (std::size_t head = 0;
       head < collected.size() && collected.size() < limit; ++head) {
    for (const VertexId nbr : g_->neighbors(collected[head])) {
      if (visited_[nbr] == stamp || allowed[nbr] == 0) continue;
      visited_[nbr] = stamp;
      collected.push_back(nbr);
      if (collected.size() == limit) break;
    }
  }
  return collected;
}

}  // namespace ticl
