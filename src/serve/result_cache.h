// Delta-aware result cache for the serve layer.
//
// QueryEngine answers each canonicalized (k, r, aggregation) query at most
// once per serving graph; everything after that is a cache question. This
// module owns both halves of that question:
//
//   * the finished-result store — a size-aware LRU (entries charged by
//     total member count, so a few graph-sized answers cannot blow the
//     memory budget) with optional per-entry TTL and explicit
//     negative-result entries (zero-community answers are the cheapest
//     entries there are, and the queries most likely to be repeated
//     verbatim by probing clients). Each entry holds the answer's
//     "communities" reply bytes, formatted once when its solve finished,
//     so a hit hands out shared bytes instead of re-formatting;
//   * the in-flight coalescing map — concurrent misses on one key share a
//     single Solve through a PendingSolve future.
//
// One entry serves every r its ranking allows. The exact solvers, the
// min peel and the max components rank by (influence desc, member hash),
// an order that does not depend on r, so top-r is the r-prefix of top-R
// (PrefixStableSolver in core/search.h). QueryEngine keys their entries
// without r (CanonicalQueryKey(query, any_r)), and an entry records the R
// it was solved at and where each community ends in its bytes. It serves
// r with no solve when r == R, when the solve came back with fewer than R
// communities (exhausted), or when r is below its size and influence[r-1]
// > influence[r] strictly (FitPrefix). A prefix hit is a cut of the
// shared bytes closed with "]" and a copy of the first r communities.
// The strict gap is what makes the cut sound under ties: the min peel
// answers "the last r peel steps, sorted" and greedy TONIC takes rounds in
// order, so with tied influences at the cut an R-prefix can pick other
// tied communities than a fresh r-solve. A tied r is solved and cached
// under its exact key (with r) instead; Insert keeps the larger R when
// two solves of one prefix key race. Approximate and local search keep r
// in the key. The engine, not this module, decides the R a miss solves
// at (its solve floor, see engine.h).
//
// The interesting part is invalidation. A GraphDelta does not perturb
// every answer: a query at level k is computed entirely from the induced
// subgraph on the maximal k-core's members plus those members' weights
// (every solver in src/core/ restricts itself to IndexedMaximalKCore with
// deterministic id tie-breaks), so a cached answer provably survives a
// delta when that induced subgraph is bit-identical before and after:
//
//   keep (k, r, agg) iff
//     no vertex crossed the k-threshold        (k-core member set equal),
//     no edited edge has both endpoints at core >= k
//                                              (induced edges equal),
//     no reweighted vertex has core >= k       (member weights equal),
//     and the aggregation does not consult whole-graph state
//                                              (balanced density reads
//                                               w(V); any reweight
//                                               anywhere perturbs it).
//
// DeltaImpact condenses a delta to the four thresholds those tests need
// (built by QueryEngine from CoreMaintainer::Summary() plus the delta's
// edge/weight lists); InvalidateForDelta applies them in one O(entries)
// sweep. Note the rule is deliberately *not* "does the delta intersect
// the cached answer's members": an edit outside every reported community
// can still promote a new community into the top-r, so member
// intersection is unsound — the subgraph-identity rule is the tightest
// sound one expressible per k-level. Anything it cannot prove kept is
// evicted, and both outcomes are counted (partial_kept /
// partial_evicted) so operators can see the rule working.
//
// Thread safety: none. The cache is a data structure, not a service —
// QueryEngine calls every method under its own mutex. The injected clock
// exists so TTL tests advance time instead of sleeping.

#ifndef TICL_SERVE_RESULT_CACHE_H_
#define TICL_SERVE_RESULT_CACHE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "graph/types.h"

namespace ticl {

/// Injectable time source (monotonic). Defaults to steady_clock::now.
using CacheClock = std::function<std::chrono::steady_clock::time_point()>;

struct ResultCacheOptions {
  /// Budget in cached community members (each entry charged its total
  /// member count, floored at 1 so negative entries still cost
  /// something). 0 disables the cache entirely.
  std::size_t member_budget = 1u << 20;
  /// Per-entry time-to-live in milliseconds; 0 = entries never expire.
  /// Expiry is lazy: an expired entry is dropped by the Lookup that
  /// finds it (and counted in counters().expired).
  std::uint64_t ttl_ms = 0;
  /// Test seam: overrides the time source for TTL. Never set in
  /// production.
  CacheClock clock_for_test;
};

/// Counters owned by the cache itself; QueryEngine merges them into
/// EngineStats (which adds the hit/miss/coalesced flow counters the
/// engine tracks, since only it sees the full lookup flow).
struct ResultCacheCounters {
  /// Entries pushed out by the LRU budget sweep.
  std::uint64_t evictions = 0;
  /// Lookups that found an entry past its TTL (dropped, reported a miss).
  std::uint64_t expired = 0;
  /// Hits served from a negative (zero-community) entry.
  std::uint64_t negative_hits = 0;
  /// Partial-invalidation outcomes, cumulative across deltas.
  std::uint64_t partial_kept = 0;
  std::uint64_t partial_evicted = 0;
};

/// What the invalidation rule needs to know about one cached answer.
struct CacheEntryMeta {
  /// The query's k-level.
  VertexId k = 0;
  /// True when the aggregation consults whole-graph state (balanced
  /// density reads w(V \ H) via total_weight()): any reweight anywhere
  /// invalidates such entries regardless of k.
  bool total_weight_sensitive = false;
};

/// A delta condensed to the thresholds the keep rule tests. Built by
/// QueryEngine::ApplyDelta from the maintainer's AffectedSummary plus the
/// delta's own edge/weight lists, evaluated against the *post-delta* core
/// numbers (sound: for any k outside [crossed_min, crossed_max] a
/// vertex's old and new core numbers sit on the same side of k, and
/// levels inside the range are evicted wholesale).
struct DeltaImpact {
  /// Some vertex's net core number changed; levels in
  /// [crossed_min, crossed_max] have a different k-core member set.
  bool any_core_crossed = false;
  VertexId crossed_min = 0;
  VertexId crossed_max = 0;
  /// Highest k whose induced k-core subgraph an edit could have touched:
  /// max over edited edges of min(core(u), core(v)) and over reweighted
  /// vertices of core(v). Entries at k <= this are evicted; 0 (with
  /// queries validated to k >= 1) evicts nothing.
  VertexId evict_k_le = 0;
  /// The delta carries weight updates: total graph weight may have
  /// changed, so total_weight_sensitive entries are evicted at every k.
  bool total_weight_changed = false;

  /// The keep/evict decision for one entry.
  bool Evicts(const CacheEntryMeta& meta) const {
    if (meta.k <= evict_k_le) return true;
    if (any_core_crossed && meta.k >= crossed_min && meta.k <= crossed_max) {
      return true;
    }
    return total_weight_changed && meta.total_weight_sensitive;
  }
};

/// One answer: the result and its "communities" reply bytes. The bytes
/// are FormatCommunitiesJson's, formatted once when the solve finished and
/// shared, never copied per hit; `communities` views the part of them that
/// answers `result`, which is all of them unless the answer is a prefix of
/// a longer cached one (then a cut at a community end, see
/// AppendCommunitiesJson). A miss leaves both pointers null.
struct CachedAnswer {
  std::shared_ptr<const SearchResult> result;
  std::shared_ptr<const std::string> communities_json;
  std::string_view communities;
};

/// A whole answer as a solve produced it, which is what the cache stores:
/// `answer.communities` views all of its bytes, `community_ends` are
/// FormatCommunitiesJson's, and `solved_r` is the r it was solved at.
/// Fewer communities than solved_r means the solver ran out (exhausted).
struct SolvedAnswer {
  CachedAnswer answer;
  std::vector<std::size_t> community_ends;
  std::uint32_t solved_r = 0;
};

/// How a solved answer relates to a request for r communities.
enum class PrefixFit {
  /// The answer's first min(r, size) communities are what a fresh solve
  /// at r returns.
  kServes,
  /// r is above the r the answer was solved at, and that solve found as
  /// many communities as it was asked for: more may exist.
  kTooShort,
  /// Communities r and r + 1 tie in influence, so the cut at r may pick
  /// different tied communities than a fresh solve at r would.
  kTied,
};

/// The prefix rule, for an answer of a prefix-stable solver
/// (PrefixStableSolver) solved at `solved_r`: it serves r when r ==
/// solved_r, when the solve came back with fewer than solved_r
/// communities (every community there is, so any r sees the same list),
/// or when r is below its size and influence[r - 1] > influence[r]
/// strictly. Those solvers rank by (influence desc, member hash), which
/// does not depend on r; but the min peel answers "the last r peel steps,
/// sorted", and greedy TONIC takes rounds in order, so with tied weights
/// at the cut an R-prefix can differ from a fresh r-solve. A strict gap
/// rules that out: the r communities above it are the only ones of their
/// influence or more.
PrefixFit FitPrefix(const SearchResult& result, std::uint32_t solved_r,
                    std::uint32_t r);

/// The bytes of the first r communities of `communities_json`, a whole
/// FormatCommunitiesJson array with the given community ends: all of it
/// when it holds no more than r, else the cut at community_ends[r - 1].
std::string_view CutCommunities(const std::string& communities_json,
                                const std::vector<std::size_t>& community_ends,
                                std::uint32_t r);

/// `answer` with its result trimmed to the first r communities when it
/// holds more: a copy of those communities, the solver stats riding
/// along. The bytes view is left as it is (cut it with CutCommunities).
CachedAnswer TrimResult(CachedAnswer answer, std::uint32_t r);

/// A cache miss in flight: later arrivals for the same key wait on the
/// future instead of re-running Solve, and receive the owner's bytes.
struct PendingSolve {
  std::promise<CachedAnswer> promise;
  std::shared_future<CachedAnswer> future = promise.get_future().share();
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// False when member_budget is 0 — callers should then skip Lookup and
  /// Insert and account the query as uncacheable.
  bool enabled() const { return member_budget_ > 0; }

  /// False when Insert would refuse `result` as kUncacheable: its charge
  /// alone exceeds the whole budget. Reads only the fixed budget, so it
  /// needs no lock.
  bool Admits(const SearchResult& result) const;

  /// What Lookup found for a request of r communities.
  struct Found {
    /// Set when the resident entry serves r: the shared answer with its
    /// bytes view already cut to r communities, but its `result` still
    /// the whole cached one. TrimResult finishes it, outside any lock the
    /// caller holds. Null pointers otherwise.
    CachedAnswer answer;
    /// The r the entry was solved at (0 when nothing is resident).
    std::uint32_t solved_r = 0;
    /// FitPrefix's verdict on the resident entry (kTooShort when there is
    /// none).
    PrefixFit fit = PrefixFit::kTooShort;
  };

  /// Looks up `key` for a request of r communities. A resident entry that
  /// serves r (FitPrefix) is bumped to MRU. An entry past its TTL is
  /// erased, counted in counters().expired, and reported as absent.
  Found Lookup(const std::string& key, std::uint32_t r);

  enum class InsertOutcome {
    kInserted,
    /// The key is already resident with an answer at least as long
    /// (solved at an r as large, or exhausted); incumbent kept.
    kDuplicate,
    /// The result's charge alone exceeds the whole budget: caching it
    /// would evict everything and still not fit.
    kUncacheable,
  };

  /// Inserts and runs the LRU budget sweep. A resident entry for `key` is
  /// replaced only by a solve at a larger r, and never once it is
  /// exhausted, so racing solves of one prefix key keep the longer
  /// answer. Neither pointer of `solved.answer` may be null (a negative
  /// answer is an empty result formatted as "[]", not a null one). The
  /// charge counts members only; the bytes ride along.
  InsertOutcome Insert(const std::string& key, const CacheEntryMeta& meta,
                       SolvedAnswer solved);

  /// Wholesale invalidation (the conservative fallback, and the disabled
  /// partial-invalidation path). Not counted as partial_evicted.
  void Clear();

  /// Delta-aware sweep: evicts exactly the entries impact.Evicts() says a
  /// delta could have changed, counts both outcomes.
  void InvalidateForDelta(const DeltaImpact& impact);

  // -- In-flight coalescing map ------------------------------------------
  // (Lives here so the whole per-key lifecycle — pending, resident,
  // invalidated — is one subsystem; the engine still drives the flow.)

  /// The pending solve another caller owns for `key`, or nullptr.
  std::shared_ptr<PendingSolve> FindPending(const std::string& key) const;

  /// Registers `pending` as the in-flight solve for `key` (must be
  /// vacant).
  void AddPending(const std::string& key,
                  std::shared_ptr<PendingSolve> pending);

  /// Retires `key`'s pending entry iff it still is `pending` (a delta may
  /// have detached the map in between).
  void RemovePending(const std::string& key,
                     const std::shared_ptr<PendingSolve>& pending);

  /// Detaches every in-flight entry (owners still fulfil their waiters;
  /// they just no longer represent this cache's keys).
  void ClearPending();

  /// Current total charge (member count) of resident entries.
  std::size_t charge() const { return charge_; }

  /// Resident entry count.
  std::size_t size() const { return map_.size(); }

  const ResultCacheCounters& counters() const { return counters_; }

 private:
  struct Entry {
    std::string key;
    CacheEntryMeta meta;
    SolvedAnswer solved;
    std::size_t charge = 0;
    /// Entry is invalid at/after this instant (time_point::max() = never).
    std::chrono::steady_clock::time_point expires_at;
  };

  std::chrono::steady_clock::time_point Now() const;
  std::chrono::steady_clock::time_point ExpiryFromNow() const;
  void EraseEntry(std::list<Entry>::iterator it);

  const std::size_t member_budget_;
  std::uint64_t ttl_ms_;
  CacheClock clock_;

  /// MRU-first recency list; the map points into it.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> map_;
  std::unordered_map<std::string, std::shared_ptr<PendingSolve>> pending_;
  std::size_t charge_ = 0;
  ResultCacheCounters counters_;
};

}  // namespace ticl

#endif  // TICL_SERVE_RESULT_CACHE_H_
