#include "serve/result_cache.h"

#include <algorithm>
#include <utility>

#include "core/community.h"
#include "util/check.h"

namespace ticl {

namespace {

/// Size-aware cache charge: total member ids held by the result, floored
/// at 1 so negative (zero-community) entries still occupy a slot's worth
/// of budget.
std::size_t ResultCharge(const SearchResult& result) {
  std::size_t members = 0;
  for (const Community& c : result.communities) members += c.members.size();
  return std::max<std::size_t>(members, 1);
}

}  // namespace

PrefixFit FitPrefix(const SearchResult& result, std::uint32_t solved_r,
                    std::uint32_t r) {
  const std::vector<Community>& communities = result.communities;
  if (r < communities.size()) {
    return communities[r - 1].influence > communities[r].influence
               ? PrefixFit::kServes
               : PrefixFit::kTied;
  }
  return r == solved_r || communities.size() < solved_r
             ? PrefixFit::kServes
             : PrefixFit::kTooShort;
}

std::string_view CutCommunities(const std::string& communities_json,
                                const std::vector<std::size_t>& community_ends,
                                std::uint32_t r) {
  if (r >= community_ends.size()) return communities_json;
  return std::string_view(communities_json).substr(0, community_ends[r - 1]);
}

CachedAnswer TrimResult(CachedAnswer answer, std::uint32_t r) {
  const SearchResult& whole = *answer.result;
  if (whole.communities.size() <= r) return answer;
  auto prefix = std::make_shared<SearchResult>();
  prefix->communities.assign(whole.communities.begin(),
                             whole.communities.begin() + r);
  prefix->stats = whole.stats;
  answer.result = std::move(prefix);
  return answer;
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : member_budget_(options.member_budget),
      ttl_ms_(options.ttl_ms),
      clock_(options.clock_for_test) {}

bool ResultCache::Admits(const SearchResult& result) const {
  return ResultCharge(result) <= member_budget_;
}

std::chrono::steady_clock::time_point ResultCache::Now() const {
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

std::chrono::steady_clock::time_point ResultCache::ExpiryFromNow() const {
  using TimePoint = std::chrono::steady_clock::time_point;
  if (ttl_ms_ == 0) return TimePoint::max();
  const TimePoint now = Now();
  // Saturate instead of overflowing: a TTL too large for the clock's
  // representation means "effectively never expires" — wrapping would
  // instead land the deadline in the past and keep the cache forever
  // cold.
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      TimePoint::max() - now);
  if (headroom.count() <= 0 ||
      ttl_ms_ >= static_cast<std::uint64_t>(headroom.count())) {
    return TimePoint::max();
  }
  return now + std::chrono::milliseconds(ttl_ms_);
}

ResultCache::Found ResultCache::Lookup(const std::string& key,
                                      std::uint32_t r) {
  Found found;
  const auto it = map_.find(key);
  if (it == map_.end()) return found;
  const SolvedAnswer& solved = it->second->solved;
  if (ttl_ms_ != 0 && Now() >= it->second->expires_at) {
    ++counters_.expired;
    EraseEntry(it->second);
    return found;
  }
  found.solved_r = solved.solved_r;
  found.fit = FitPrefix(*solved.answer.result, solved.solved_r, r);
  if (found.fit != PrefixFit::kServes) return found;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  found.answer = solved.answer;
  found.answer.communities = CutCommunities(
      *solved.answer.communities_json, solved.community_ends, r);
  if (solved.answer.result->communities.empty()) ++counters_.negative_hits;
  return found;
}

ResultCache::InsertOutcome ResultCache::Insert(const std::string& key,
                                               const CacheEntryMeta& meta,
                                               SolvedAnswer solved) {
  TICL_CHECK_MSG(enabled(), "Insert on a disabled cache");
  const CachedAnswer& answer = solved.answer;
  TICL_CHECK_MSG(
      answer.result != nullptr && answer.communities_json != nullptr,
      "cannot cache a null result or null bytes");
  TICL_CHECK_MSG(answer.communities.size() == answer.communities_json->size(),
                 "cache the whole answer, not a cut of it");
  TICL_CHECK_MSG(
      solved.community_ends.size() == answer.result->communities.size(),
      "one community end per community");
  const auto it = map_.find(key);
  if (it != map_.end()) {
    const SolvedAnswer& incumbent = it->second->solved;
    const bool exhausted =
        incumbent.answer.result->communities.size() < incumbent.solved_r;
    if (exhausted || incumbent.solved_r >= solved.solved_r) {
      return InsertOutcome::kDuplicate;
    }
  }
  const std::size_t charge = ResultCharge(*answer.result);
  if (charge > member_budget_) return InsertOutcome::kUncacheable;
  if (it != map_.end()) EraseEntry(it->second);
  lru_.push_front(Entry{key, meta, std::move(solved), charge,
                        ExpiryFromNow()});
  map_.emplace(key, lru_.begin());
  charge_ += charge;
  while (charge_ > member_budget_) {
    auto victim = std::prev(lru_.end());
    ++counters_.evictions;
    EraseEntry(victim);
  }
  return InsertOutcome::kInserted;
}

void ResultCache::Clear() {
  lru_.clear();
  map_.clear();
  charge_ = 0;
}

void ResultCache::InvalidateForDelta(const DeltaImpact& impact) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (impact.Evicts(it->meta)) {
      ++counters_.partial_evicted;
      const auto victim = it++;
      EraseEntry(victim);
    } else {
      ++counters_.partial_kept;
      ++it;
    }
  }
}

std::shared_ptr<PendingSolve> ResultCache::FindPending(
    const std::string& key) const {
  const auto it = pending_.find(key);
  return it != pending_.end() ? it->second : nullptr;
}

void ResultCache::AddPending(const std::string& key,
                             std::shared_ptr<PendingSolve> pending) {
  const bool inserted =
      pending_.emplace(key, std::move(pending)).second;
  TICL_CHECK_MSG(inserted, "a solve for this key is already pending");
}

void ResultCache::RemovePending(
    const std::string& key, const std::shared_ptr<PendingSolve>& pending) {
  const auto it = pending_.find(key);
  if (it != pending_.end() && it->second == pending) pending_.erase(it);
}

void ResultCache::ClearPending() { pending_.clear(); }

void ResultCache::EraseEntry(std::list<Entry>::iterator it) {
  charge_ -= it->charge;
  map_.erase(it->key);
  lru_.erase(it);
}

}  // namespace ticl
