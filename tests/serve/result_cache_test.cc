// Unit tests for the delta-aware result cache: LRU/budget mechanics, TTL
// with an injected clock, the DeltaImpact keep rule, the prefix rule, and
// the coalescing map. The end-to-end behaviour (does the engine serve
// *correct* answers from kept entries?) is owned by the churn oracle in
// engine_test.cc.

#include "serve/result_cache.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/search.h"
#include "gen/erdos_renyi.h"
#include "serve/protocol.h"

namespace ticl {
namespace {

/// A whole answer of the given community sizes, solved at `solved_r`
/// (the default, above every size used here, makes it exhausted: it
/// serves any r). Influences are the sizes, so distinct sizes never tie.
SolvedAnswer MakeAnswer(std::initializer_list<std::size_t> community_sizes,
                        std::uint32_t solved_r = 100) {
  auto result = std::make_shared<SearchResult>();
  VertexId next = 0;
  for (const std::size_t size : community_sizes) {
    Community c;
    for (std::size_t i = 0; i < size; ++i) c.members.push_back(next++);
    c.influence = static_cast<double>(size);
    result->communities.push_back(std::move(c));
  }
  SolvedAnswer solved;
  solved.solved_r = solved_r;
  auto bytes = std::make_shared<const std::string>(
      FormatCommunitiesJson(*result, &solved.community_ends));
  solved.answer = {std::move(result), bytes, *bytes};
  return solved;
}

/// The answer `key` serves for r = 1000 (null when it serves none).
CachedAnswer Find(ResultCache& cache, const std::string& key) {
  return cache.Lookup(key, 1000).answer;
}

CacheEntryMeta Meta(VertexId k, bool total_weight_sensitive = false) {
  return CacheEntryMeta{k, total_weight_sensitive};
}

TEST(ResultCacheTest, LookupMissInsertHit) {
  ResultCache cache(ResultCacheOptions{});
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(Find(cache, "a").result, nullptr);
  EXPECT_EQ(Find(cache, "a").communities_json, nullptr);
  const SolvedAnswer answer = MakeAnswer({3});
  EXPECT_EQ(cache.Insert("a", Meta(2), answer),
            ResultCache::InsertOutcome::kInserted);
  EXPECT_EQ(Find(cache, "a").result, answer.answer.result);
  EXPECT_EQ(cache.charge(), 3u);
}

// A hit hands out the very bytes that were inserted: no copy, no
// re-format, however often the entry is hit.
TEST(ResultCacheTest, HitReturnsTheInsertedBytes) {
  ResultCache cache(ResultCacheOptions{});
  const SolvedAnswer solved = MakeAnswer({3, 2});
  const CachedAnswer& answer = solved.answer;
  cache.Insert("a", Meta(2), solved);
  for (int i = 0; i < 3; ++i) {
    const CachedAnswer hit = Find(cache, "a");
    EXPECT_EQ(hit.result, answer.result);
    EXPECT_EQ(hit.communities_json, answer.communities_json);
    EXPECT_EQ(hit.communities.data(), answer.communities_json->data());
    EXPECT_EQ(hit.communities.size(), answer.communities_json->size());
  }
  EXPECT_EQ(*answer.communities_json,
            "[{\"influence\": 3, \"members\": [0, 1, 2]}, "
            "{\"influence\": 2, \"members\": [3, 4]}]");
}

TEST(ResultCacheTest, DisabledWhenBudgetZero) {
  ResultCacheOptions options;
  options.member_budget = 0;
  ResultCache cache(options);
  EXPECT_FALSE(cache.enabled());
}

TEST(ResultCacheTest, DuplicateKeepsIncumbent) {
  ResultCache cache(ResultCacheOptions{});
  const SolvedAnswer first = MakeAnswer({2});
  const SolvedAnswer second = MakeAnswer({5});
  EXPECT_EQ(cache.Insert("a", Meta(2), first),
            ResultCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.Insert("a", Meta(2), second),
            ResultCache::InsertOutcome::kDuplicate);
  EXPECT_EQ(Find(cache, "a").result, first.answer.result);
  EXPECT_EQ(Find(cache, "a").communities_json,
            first.answer.communities_json);
}

SearchResult WithInfluences(std::initializer_list<double> influences) {
  SearchResult result;
  for (const double influence : influences) {
    Community c;
    c.influence = influence;
    result.communities.push_back(std::move(c));
  }
  return result;
}

TEST(FitPrefixTest, StrictGapExhaustionOrTheSolvedR) {
  const SearchResult four = WithInfluences({9, 7, 7, 3});
  EXPECT_EQ(FitPrefix(four, 4, 4), PrefixFit::kServes);  // r == R
  EXPECT_EQ(FitPrefix(four, 4, 1), PrefixFit::kServes);  // 9 > 7
  EXPECT_EQ(FitPrefix(four, 4, 2), PrefixFit::kTied);    // 7 == 7
  EXPECT_EQ(FitPrefix(four, 4, 3), PrefixFit::kServes);  // 7 > 3
  EXPECT_EQ(FitPrefix(four, 4, 5), PrefixFit::kTooShort);
  // Solved at 6, found 4: every community there is, so any r >= 4 gets
  // all of them; below 4 the gap rule still decides.
  EXPECT_EQ(FitPrefix(four, 6, 4), PrefixFit::kServes);
  EXPECT_EQ(FitPrefix(four, 6, 50), PrefixFit::kServes);
  EXPECT_EQ(FitPrefix(four, 6, 2), PrefixFit::kTied);
  EXPECT_EQ(FitPrefix(SearchResult{}, 3, 1), PrefixFit::kServes);
}

TEST(ResultCacheTest, PrefixHitCutsTheSharedBytes) {
  ResultCache cache(ResultCacheOptions{});
  const SolvedAnswer solved = MakeAnswer({5, 4, 3, 2}, /*solved_r=*/4);
  cache.Insert("p", Meta(2), solved);
  for (std::uint32_t r = 1; r <= 4; ++r) {
    const ResultCache::Found found = cache.Lookup("p", r);
    ASSERT_EQ(found.fit, PrefixFit::kServes) << r;
    EXPECT_EQ(found.solved_r, 4u);
    // The cut views the shared bytes; no copy was made.
    EXPECT_EQ(found.answer.communities_json,
              solved.answer.communities_json);
    EXPECT_EQ(found.answer.communities.data(),
              solved.answer.communities_json->data());
    const CachedAnswer trimmed = TrimResult(found.answer, r);
    ASSERT_EQ(trimmed.result->communities.size(), r);
    std::string bytes;
    AppendCommunitiesJson(&bytes, trimmed.communities);
    EXPECT_EQ(bytes, FormatCommunitiesJson(*trimmed.result)) << r;
  }
  EXPECT_EQ(cache.Lookup("p", 5).fit, PrefixFit::kTooShort);
  EXPECT_EQ(cache.Lookup("p", 5).answer.result, nullptr);
}

TEST(ResultCacheTest, InsertKeepsTheLongerAnswerOfOneKey) {
  ResultCache cache(ResultCacheOptions{});
  EXPECT_EQ(cache.Insert("p", Meta(2), MakeAnswer({5, 4}, 2)),
            ResultCache::InsertOutcome::kInserted);
  const SolvedAnswer longer = MakeAnswer({5, 4, 3, 2}, 4);
  EXPECT_EQ(cache.Insert("p", Meta(2), longer),
            ResultCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.charge(), 14u);
  EXPECT_EQ(cache.Insert("p", Meta(2), MakeAnswer({5, 4, 3}, 3)),
            ResultCache::InsertOutcome::kDuplicate);
  EXPECT_EQ(cache.Lookup("p", 4).answer.result, longer.answer.result);

  // An exhausted answer already lists every community there is.
  EXPECT_EQ(cache.Insert("x", Meta(2), MakeAnswer({5}, 3)),
            ResultCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.Insert("x", Meta(2), MakeAnswer({5}, 9)),
            ResultCache::InsertOutcome::kDuplicate);
}

/// What CheckPrefixesAgainstFreshSolves saw.
struct PrefixTally {
  std::uint32_t asked = 0;
  std::uint32_t served = 0;
  std::uint32_t tied = 0;
  /// Tied r where the first r cached communities differ from the fresh
  /// solve: the cases the tie rule exists for.
  std::uint32_t tied_cut_differs = 0;
};

bool SameCommunities(const std::vector<Community>& a,
                     const std::vector<Community>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].members != b[i].members || a[i].influence != b[i].influence) {
      return false;
    }
  }
  return true;
}

/// Solves `query` at R into a cache, then asks it for every r in 1..R+2:
/// whatever it serves must be what a fresh Solve() at r returns, result
/// and bytes, and on a tie at the cut it must serve nothing.
void CheckPrefixesAgainstFreshSolves(const Graph& g, Query query,
                                     const SolveOptions& options,
                                     std::uint32_t big_r,
                                     PrefixTally* tally) {
  ResultCache cache(ResultCacheOptions{});
  query.r = big_r;
  SolvedAnswer solved;
  solved.solved_r = big_r;
  auto whole = std::make_shared<const SearchResult>(Solve(g, query, options));
  auto bytes = std::make_shared<const std::string>(
      FormatCommunitiesJson(*whole, &solved.community_ends));
  solved.answer = {whole, bytes, *bytes};
  cache.Insert("q", Meta(query.k), std::move(solved));

  for (std::uint32_t r = 1; r <= big_r + 2; ++r) {
    ++tally->asked;
    query.r = r;
    const SearchResult fresh = Solve(g, query, options);
    const ResultCache::Found found = cache.Lookup("q", r);
    const std::string label = QueryToString(query) + " solver " +
                              SolverKindName(options.solver);
    if (found.fit == PrefixFit::kTied) {
      EXPECT_EQ(found.answer.result, nullptr) << label;
      ++tally->tied;
      const std::vector<Community> cut(whole->communities.begin(),
                                       whole->communities.begin() + r);
      if (!SameCommunities(cut, fresh.communities)) ++tally->tied_cut_differs;
      continue;
    }
    if (found.answer.result == nullptr) {
      EXPECT_EQ(found.fit, PrefixFit::kTooShort) << label;
      EXPECT_GT(r, big_r) << label;
      continue;
    }
    ++tally->served;
    const CachedAnswer prefix = TrimResult(found.answer, r);
    EXPECT_TRUE(SameCommunities(prefix.result->communities,
                                fresh.communities))
        << label;
    std::string cut;
    AppendCommunitiesJson(&cut, prefix.communities);
    EXPECT_EQ(cut, FormatCommunitiesJson(fresh)) << label;
  }
}

/// Every prefix-stable solver with each aggregation it takes, TIC and
/// TONIC, against fresh solves at every r.
PrefixTally CheckEveryPrefixStableSolver(const Graph& g) {
  struct Case {
    SolverKind solver;
    AggregationSpec aggregation;
    VertexId k;
  };
  const Case cases[] = {
      {SolverKind::kMinPeel, AggregationSpec::Min(), 2},
      {SolverKind::kMinPeel, AggregationSpec::Min(), 3},
      {SolverKind::kMaxComponents, AggregationSpec::Max(), 2},
      {SolverKind::kImproved, AggregationSpec::Sum(), 3},
      {SolverKind::kImproved, AggregationSpec::SumSurplus(0.5), 3},
      {SolverKind::kNaive, AggregationSpec::Sum(), 3},
      {SolverKind::kAuto, AggregationSpec::Min(), 2},
  };
  PrefixTally tally;
  for (const Case& c : cases) {
    for (const bool tonic : {false, true}) {
      Query query;
      query.k = c.k;
      query.aggregation = c.aggregation;
      query.non_overlapping = tonic;
      SolveOptions options;
      options.solver = c.solver;
      EXPECT_TRUE(PrefixStableSolver(query, c.solver));
      CheckPrefixesAgainstFreshSolves(g, query, options, /*big_r=*/6, &tally);
    }
  }
  return tally;
}

TEST(ResultCachePrefixOracleTest, ServedPrefixesEqualFreshSolves) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    Graph g = GenerateErdosRenyi(70, 210, seed);
    AssignWeights(&g, WeightScheme::kUniform, seed);
    const PrefixTally tally = CheckEveryPrefixStableSolver(g);
    // Random weights rarely tie: nearly every r <= R is served.
    EXPECT_GT(tally.served, tally.asked / 2) << "seed " << seed;
  }
}

TEST(ResultCachePrefixOracleTest, UniformWeightsTieAtTheCutAndForceASolve) {
  Graph g = GenerateErdosRenyi(70, 210, 5);
  g.SetWeights(std::vector<Weight>(g.num_vertices(), 1.0));
  const PrefixTally tally = CheckEveryPrefixStableSolver(g);
  // With every weight equal the min and max communities all tie, and for
  // some r the cut picks other tied communities than a fresh solve does:
  // serving it would have been wrong.
  EXPECT_GT(tally.tied, 0u);
  EXPECT_GT(tally.tied_cut_differs, 0u);

  // Exact enumeration, which the serving path allows on tiny graphs.
  Graph tiny = GenerateErdosRenyi(11, 24, 7);
  tiny.SetWeights(std::vector<Weight>(tiny.num_vertices(), 1.0));
  Query query;
  query.k = 2;
  query.aggregation = AggregationSpec::Sum();
  SolveOptions exact;
  exact.solver = SolverKind::kExact;
  PrefixTally exact_tally;
  CheckPrefixesAgainstFreshSolves(tiny, query, exact, 5, &exact_tally);
  query.non_overlapping = true;
  CheckPrefixesAgainstFreshSolves(tiny, query, exact, 5, &exact_tally);
  EXPECT_GT(exact_tally.tied, 0u);
}

TEST(ResultCacheTest, OversizedResultIsUncacheable) {
  ResultCacheOptions options;
  options.member_budget = 4;
  ResultCache cache(options);
  EXPECT_EQ(cache.Insert("big", Meta(2), MakeAnswer({5})),
            ResultCache::InsertOutcome::kUncacheable);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charge(), 0u);
}

TEST(ResultCacheTest, LruEvictsOldestFirstBySize) {
  ResultCacheOptions options;
  options.member_budget = 10;
  ResultCache cache(options);
  cache.Insert("a", Meta(2), MakeAnswer({4}));
  cache.Insert("b", Meta(2), MakeAnswer({4}));
  EXPECT_NE(Find(cache, "a").result, nullptr);  // bump a to MRU
  cache.Insert("c", Meta(2), MakeAnswer({4}));  // 12 > 10: evict b
  EXPECT_NE(Find(cache, "a").result, nullptr);
  EXPECT_EQ(Find(cache, "b").result, nullptr);
  EXPECT_NE(Find(cache, "c").result, nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_LE(cache.charge(), 10u);
}

TEST(ResultCacheTest, NegativeEntriesChargeOneAndCountHits) {
  ResultCache cache(ResultCacheOptions{});
  cache.Insert("none", Meta(7), MakeAnswer({}));
  EXPECT_EQ(cache.charge(), 1u);
  const CachedAnswer hit = Find(cache, "none");
  ASSERT_NE(hit.result, nullptr);
  EXPECT_TRUE(hit.result->communities.empty());
  ASSERT_NE(hit.communities_json, nullptr);
  EXPECT_EQ(*hit.communities_json, "[]");
  EXPECT_EQ(cache.counters().negative_hits, 1u);
}

TEST(ResultCacheTest, TtlExpiresEntriesLazily) {
  // Injected clock: no sleeping. Entries live exactly ttl_ms.
  auto now = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::time_point{});
  ResultCacheOptions options;
  options.ttl_ms = 100;
  options.clock_for_test = [now] { return *now; };
  ResultCache cache(options);

  cache.Insert("a", Meta(2), MakeAnswer({3}));
  *now += std::chrono::milliseconds(99);
  EXPECT_NE(Find(cache, "a").result, nullptr);  // still fresh
  *now += std::chrono::milliseconds(1);
  EXPECT_EQ(Find(cache, "a").result, nullptr);  // at the deadline: expired
  EXPECT_EQ(cache.counters().expired, 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charge(), 0u);

  // Re-inserting restarts the clock from the (advanced) now.
  cache.Insert("a", Meta(2), MakeAnswer({3}));
  *now += std::chrono::milliseconds(50);
  EXPECT_NE(Find(cache, "a").result, nullptr);
}

TEST(ResultCacheTest, HugeTtlSaturatesInsteadOfExpiringInstantly) {
  // A TTL beyond the clock's representable range means "effectively
  // never expires"; an unguarded now + ttl would wrap past the epoch and
  // expire every entry on its first lookup.
  ResultCacheOptions options;
  options.ttl_ms = ~0ull;
  ResultCache cache(options);  // real clock on purpose
  cache.Insert("a", Meta(2), MakeAnswer({3}));
  EXPECT_NE(Find(cache, "a").result, nullptr);
  EXPECT_EQ(cache.counters().expired, 0u);
}

TEST(ResultCacheTest, ZeroTtlNeverExpires) {
  auto now = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::time_point{});
  ResultCacheOptions options;
  options.ttl_ms = 0;
  options.clock_for_test = [now] { return *now; };
  ResultCache cache(options);
  cache.Insert("a", Meta(2), MakeAnswer({3}));
  *now += std::chrono::hours(10000);
  EXPECT_NE(Find(cache, "a").result, nullptr);
  EXPECT_EQ(cache.counters().expired, 0u);
}

TEST(DeltaImpactTest, EvictsTruthTable) {
  // Edits inside the 3-and-below cores, cores crossed at levels [5, 6],
  // weights moved somewhere.
  DeltaImpact impact;
  impact.any_core_crossed = true;
  impact.crossed_min = 5;
  impact.crossed_max = 6;
  impact.evict_k_le = 3;
  impact.total_weight_changed = true;

  EXPECT_TRUE(impact.Evicts(Meta(1)));   // under evict_k_le
  EXPECT_TRUE(impact.Evicts(Meta(3)));   // at evict_k_le
  EXPECT_FALSE(impact.Evicts(Meta(4)));  // between the two ranges: kept
  EXPECT_TRUE(impact.Evicts(Meta(5)));   // crossed range
  EXPECT_TRUE(impact.Evicts(Meta(6)));
  EXPECT_FALSE(impact.Evicts(Meta(7)));  // above everything: kept
  // Balanced density consults w(V): weight churn evicts it at any k.
  EXPECT_TRUE(impact.Evicts(Meta(7, /*total_weight_sensitive=*/true)));

  DeltaImpact edges_only;
  edges_only.evict_k_le = 2;
  EXPECT_TRUE(edges_only.Evicts(Meta(2)));
  EXPECT_FALSE(edges_only.Evicts(Meta(3)));
  // No weight churn: balanced density follows the normal k rule.
  EXPECT_FALSE(edges_only.Evicts(Meta(3, /*total_weight_sensitive=*/true)));

  const DeltaImpact empty;  // an all-weights-outside-any-core delta
  EXPECT_FALSE(empty.Evicts(Meta(1)));
}

TEST(ResultCacheTest, InvalidateForDeltaSweepsAndCounts) {
  ResultCache cache(ResultCacheOptions{});
  cache.Insert("k2", Meta(2), MakeAnswer({3}));
  cache.Insert("k4", Meta(4), MakeAnswer({4}));
  cache.Insert("k7", Meta(7), MakeAnswer({5}));
  cache.Insert("bd7", Meta(7, /*total_weight_sensitive=*/true),
               MakeAnswer({5}));

  DeltaImpact impact;
  impact.evict_k_le = 2;
  impact.total_weight_changed = true;
  cache.InvalidateForDelta(impact);

  EXPECT_EQ(Find(cache, "k2").result, nullptr);
  EXPECT_NE(Find(cache, "k4").result, nullptr);
  EXPECT_NE(Find(cache, "k7").result, nullptr);
  EXPECT_EQ(Find(cache, "bd7").result, nullptr);
  EXPECT_EQ(cache.counters().partial_evicted, 2u);
  EXPECT_EQ(cache.counters().partial_kept, 2u);
  EXPECT_EQ(cache.charge(), 9u);  // k4 + k7 remain
}

TEST(ResultCacheTest, ClearDropsEverythingWithoutPartialCounts) {
  ResultCache cache(ResultCacheOptions{});
  cache.Insert("a", Meta(2), MakeAnswer({3}));
  cache.Insert("b", Meta(3), MakeAnswer({4}));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charge(), 0u);
  EXPECT_EQ(Find(cache, "a").result, nullptr);
  EXPECT_EQ(cache.counters().partial_evicted, 0u);
  EXPECT_EQ(cache.counters().partial_kept, 0u);
}

TEST(ResultCacheTest, PendingMapLifecycle) {
  ResultCache cache(ResultCacheOptions{});
  EXPECT_EQ(cache.FindPending("a"), nullptr);
  auto pending = std::make_shared<PendingSolve>();
  cache.AddPending("a", pending);
  EXPECT_EQ(cache.FindPending("a"), pending);

  // RemovePending is identity-checked: a different PendingSolve for the
  // same key (post-delta re-entry) is not removed by the old owner.
  auto other = std::make_shared<PendingSolve>();
  cache.RemovePending("a", other);
  EXPECT_EQ(cache.FindPending("a"), pending);
  cache.RemovePending("a", pending);
  EXPECT_EQ(cache.FindPending("a"), nullptr);

  cache.AddPending("b", pending);
  cache.ClearPending();
  EXPECT_EQ(cache.FindPending("b"), nullptr);
}

}  // namespace
}  // namespace ticl
