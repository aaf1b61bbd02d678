// Bounded "best r items" container.
//
// All top-r searches in the library funnel their candidates through this
// structure. Ordering is by score descending with an explicit 64-bit
// tie-break key (callers pass the community's vertex-set hash), which makes
// result order deterministic even when influence values collide.

#ifndef TICL_UTIL_TOP_R_LIST_H_
#define TICL_UTIL_TOP_R_LIST_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ticl {

template <typename T>
class TopRList {
 public:
  struct Entry {
    double score;
    std::uint64_t tie_break;
    T value;
  };

  /// capacity = r; must be at least 1.
  explicit TopRList(std::size_t capacity) : capacity_(capacity) {
    TICL_CHECK(capacity >= 1);
  }

  /// Strict "a ranks ahead of b" order used throughout.
  static bool Better(double score_a, std::uint64_t tie_a, double score_b,
                     std::uint64_t tie_b) {
    if (score_a != score_b) return score_a > score_b;
    return tie_a < tie_b;
  }

  /// Offers an item. Returns true if it entered the list (possibly evicting
  /// the current worst member).
  bool Insert(double score, std::uint64_t tie_break, T value) {
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{score, tie_break, std::move(value)});
      std::push_heap(entries_.begin(), entries_.end(), HeapCmp);
      return true;
    }
    const Entry& worst = entries_.front();
    if (!Better(score, tie_break, worst.score, worst.tie_break)) return false;
    std::pop_heap(entries_.begin(), entries_.end(), HeapCmp);
    entries_.back() = Entry{score, tie_break, std::move(value)};
    std::push_heap(entries_.begin(), entries_.end(), HeapCmp);
    return true;
  }

  /// Score of the current r-th (worst retained) entry, or -inf while the
  /// list holds fewer than r items. This is the pruning threshold f(L_r).
  double Threshold() const {
    if (entries_.size() < capacity_) {
      return -std::numeric_limits<double>::infinity();
    }
    return entries_.front().score;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return entries_.empty(); }

  /// Unordered view of the retained entries (heap order).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Copies the entries sorted best-first.
  std::vector<Entry> SortedDescending() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return Better(a.score, a.tie_break, b.score, b.tie_break);
    });
    return out;
  }

  /// Moves the entries out, sorted best-first; the list becomes empty.
  std::vector<Entry> TakeSortedDescending() {
    std::vector<Entry> out = std::move(entries_);
    entries_.clear();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return Better(a.score, a.tie_break, b.score, b.tie_break);
    });
    return out;
  }

 private:
  // Min-heap on (score asc, tie desc) so the front is the worst entry.
  static bool HeapCmp(const Entry& a, const Entry& b) {
    return Better(a.score, a.tie_break, b.score, b.tie_break);
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace ticl

#endif  // TICL_UTIL_TOP_R_LIST_H_
