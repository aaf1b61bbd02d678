#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "graph/graph_delta.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::ToVector;
using testing::TwoTrianglesAndK4;

Graph WeightedChungLu(std::uint64_t seed, VertexId n = 600) {
  ChungLuOptions cl;
  cl.num_vertices = n;
  cl.target_average_degree = 8.0;
  cl.gamma = 2.5;
  cl.seed = seed;
  Graph g = GenerateChungLu(cl);
  AssignWeights(&g, WeightScheme::kPageRank, seed);
  return g;
}

/// The mixed workload used across these tests: every aggregation family,
/// TIC and TONIC, constrained and unconstrained.
std::vector<Query> MixedQueries() {
  std::vector<Query> queries;
  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(),
        AggregationSpec::Sum(), AggregationSpec::SumSurplus(0.5),
        AggregationSpec::Avg()}) {
    for (const VertexId k : {2u, 3u}) {
      for (const std::uint32_t r : {1u, 4u}) {
        Query q;
        q.k = k;
        q.r = r;
        q.aggregation = spec;
        queries.push_back(q);
      }
    }
  }
  Query constrained;
  constrained.k = 2;
  constrained.r = 3;
  constrained.size_limit = 10;
  constrained.aggregation = AggregationSpec::Avg();
  queries.push_back(constrained);
  Query tonic;
  tonic.k = 2;
  tonic.r = 3;
  tonic.non_overlapping = true;
  tonic.aggregation = AggregationSpec::Sum();
  queries.push_back(tonic);
  return queries;
}

/// The accounting contract documented on EngineStats: every query lands
/// in exactly one outcome counter.
void ExpectOutcomeInvariant(const EngineStats& stats) {
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.cache_coalesced +
                stats.cache_uncacheable,
            stats.queries);
}

void ExpectIdentical(const SearchResult& a, const SearchResult& b,
                     std::size_t query_index) {
  ASSERT_EQ(a.communities.size(), b.communities.size())
      << "query " << query_index;
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_EQ(a.communities[i].members, b.communities[i].members)
        << "query " << query_index << " community " << i;
    EXPECT_EQ(a.communities[i].influence, b.communities[i].influence)
        << "query " << query_index << " community " << i;
  }
}

/// The communities array a response answers with, as the wire carries it.
std::string AnswerBytes(const EngineResponse& response) {
  std::string bytes;
  AppendCommunitiesJson(&bytes, response.communities);
  return bytes;
}

TEST(CanonicalQueryKeyTest, NormalizesInactiveParameters) {
  Query a;
  a.aggregation = AggregationSpec::Sum();
  Query b = a;
  b.aggregation.alpha = 7.0;  // inactive under sum
  b.aggregation.beta = 9.0;   // inactive under sum
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));

  Query c = a;
  c.aggregation = AggregationSpec::SumSurplus(1.0);
  Query d = a;
  d.aggregation = AggregationSpec::SumSurplus(2.0);
  EXPECT_NE(CanonicalQueryKey(c), CanonicalQueryKey(d));  // alpha active

  Query e = a;
  e.k = 3;
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(e));
}

TEST(CanonicalQueryKeyTest, AnyRLeavesOutOnlyR) {
  Query a;
  a.k = 3;
  a.r = 2;
  a.aggregation = AggregationSpec::Min();
  Query b = a;
  b.r = 9;
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(b));
  EXPECT_EQ(CanonicalQueryKey(a, /*any_r=*/true),
            CanonicalQueryKey(b, /*any_r=*/true));
  // Never the key of some exact query.
  EXPECT_NE(CanonicalQueryKey(a, /*any_r=*/true), CanonicalQueryKey(a));
  Query c = a;
  c.k = 4;
  EXPECT_NE(CanonicalQueryKey(a, /*any_r=*/true),
            CanonicalQueryKey(c, /*any_r=*/true));
  Query d = a;
  d.non_overlapping = true;
  EXPECT_NE(CanonicalQueryKey(a, /*any_r=*/true),
            CanonicalQueryKey(d, /*any_r=*/true));
}

TEST(QueryEngineTest, MatchesDirectSolveSequentially) {
  Graph g = WeightedChungLu(17);
  const Graph reference = g;  // engine takes ownership of its copy
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);

  const std::vector<Query> queries = MixedQueries();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const EngineResponse response = engine.Run(queries[i]);
    const SearchResult direct = Solve(reference, queries[i]);
    ExpectIdentical(*response.result, direct, i);
    EXPECT_EQ(ValidateResult(reference, queries[i], *response.result), "");
  }
}

TEST(QueryEngineTest, ConcurrentSubmissionsMatchSequentialSolve) {
  Graph g = WeightedChungLu(23);
  const Graph reference = g;
  EngineOptions options;
  options.num_threads = 4;
  options.cache_member_budget = 0;  // force every run through the solver
  QueryEngine engine(std::move(g), options);

  const std::vector<Query> queries = MixedQueries();
  constexpr int kRepetitions = 3;  // same query in flight multiple times

  std::vector<std::future<EngineResponse>> futures;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (const Query& q : queries) futures.push_back(engine.Submit(q));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Query& q = queries[i % queries.size()];
    const EngineResponse response = futures[i].get();
    const SearchResult direct = Solve(reference, q);
    ExpectIdentical(*response.result, direct, i % queries.size());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, queries.size() * kRepetitions);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(QueryEngineTest, ConcurrentSubmittersWithSharedCache) {
  Graph g = WeightedChungLu(29, 300);
  const Graph reference = g;
  QueryEngine engine(std::move(g), {});

  const std::vector<Query> queries = MixedQueries();
  // Warm the cache sequentially so every threaded run below is a
  // deterministic hit (capacity default comfortably exceeds the batch).
  for (const Query& q : queries) engine.Run(q);
  const EngineStats warm = engine.stats();

  std::vector<std::thread> submitters;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (const Query& q : queries) {
        const EngineResponse response = engine.Run(q);
        if (!response.cache_hit ||
            !ValidateResult(reference, q, *response.result).empty()) {
          failed = true;
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  EXPECT_FALSE(failed.load());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, queries.size() * 5);
  EXPECT_EQ(stats.cache_hits - warm.cache_hits, queries.size() * 4);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(QueryEngineTest, CacheHitSharesTheResultObject) {
  QueryEngine engine(TwoTrianglesAndK4(), {});
  Query q;
  q.k = 2;
  q.r = 2;
  q.aggregation = AggregationSpec::Sum();
  const EngineResponse first = engine.Run(q);
  EXPECT_FALSE(first.cache_hit);
  const EngineResponse second = engine.Run(q);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.result.get(), second.result.get());
  // The reply bytes were formatted once, by the miss, and the hit shares
  // them; only the miss reports solve time.
  ASSERT_NE(first.bytes_owner, nullptr);
  EXPECT_EQ(first.communities.data(), second.communities.data());
  EXPECT_EQ(first.communities.data(), first.bytes_owner->data());
  EXPECT_EQ(AnswerBytes(first), FormatCommunitiesJson(*first.result));
  EXPECT_GT(first.solve_seconds, 0.0);
  EXPECT_EQ(second.solve_seconds, 0.0);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

// Size-aware cache accounting on the hand-analyzed fixture. Under sum at
// k = 2 the top communities are K4 (4 members), {7,8,9} (3), {6,8,9} (3),
// {6,7,9} (3), {0..5} (6) — so the member charge of a top-r result is
// r=1: 4, r=2: 7, r=3: 10, r=5: 19. These tests want one entry per r, so
// they solve with kApprox at epsilon 0: the same answers as improved
// search, but r stays in its cache key (it is not prefix-stable).
EngineOptions OneEntryPerR(std::size_t budget) {
  EngineOptions options;
  options.cache_member_budget = budget;
  options.num_threads = 1;
  options.solve.solver = SolverKind::kApprox;
  options.solve.epsilon = 0.0;
  return options;
}

TEST(QueryEngineTest, LruEvictsLeastRecentlyUsedBySize) {
  const EngineOptions options = OneEntryPerR(14);
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query a, b, c;
  a.k = 2;
  a.r = 1;  // charge 4
  b.k = 2;
  b.r = 2;  // charge 7
  c.k = 2;
  c.r = 3;  // charge 10

  engine.Run(a);                            // cache: [a]      charge  4
  engine.Run(b);                            // cache: [b, a]   charge 11
  EXPECT_TRUE(engine.Run(a).cache_hit);     // cache: [a, b]
  engine.Run(c);                            // 21 > 14: evicts b -> [c, a]
  EXPECT_TRUE(engine.Run(a).cache_hit);     // a survived -> [a, c]
  EXPECT_FALSE(engine.Run(b).cache_hit);    // b was evicted
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_LE(stats.cache_charge, 14u);
}

TEST(QueryEngineTest, SizeAwareCacheEvictsOneHugeResultBeforeManySmall) {
  const EngineOptions options = OneEntryPerR(25);
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query huge;  // charge 19 — most of the budget
  huge.k = 2;
  huge.r = 5;
  Query small_a;  // charge 4
  small_a.k = 2;
  small_a.r = 1;
  Query small_b;  // charge 4 (K4 is the only 3-core)
  small_b.k = 3;
  small_b.r = 1;

  engine.Run(huge);                              // charge 19
  engine.Run(small_a);                           // charge 23
  engine.Run(small_b);                           // 27 > 25: evict huge only
  EXPECT_TRUE(engine.Run(small_a).cache_hit);    // both small ones survived
  EXPECT_TRUE(engine.Run(small_b).cache_hit);
  EXPECT_EQ(engine.stats().cache_evictions, 1u);
  // The one huge entry is what paid (probing it re-inserts, so last).
  EXPECT_FALSE(engine.Run(huge).cache_hit);
}

TEST(QueryEngineTest, ResultLargerThanBudgetIsServedUncached) {
  const EngineOptions options = OneEntryPerR(5);
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query huge;  // charge 19 > budget: caching it would evict everything
  huge.k = 2;
  huge.r = 5;
  Query small;  // charge 4
  small.k = 2;
  small.r = 1;

  engine.Run(small);
  engine.Run(huge);
  EXPECT_FALSE(engine.Run(huge).cache_hit);   // never cached
  EXPECT_TRUE(engine.Run(small).cache_hit);   // untouched by the huge miss
  EXPECT_EQ(engine.stats().cache_evictions, 0u);
}

TEST(QueryEngineTest, CacheDisabledNeverHits) {
  EngineOptions options;
  options.cache_member_budget = 0;
  QueryEngine engine(TwoTrianglesAndK4(), options);
  Query q;
  q.k = 2;
  engine.Run(q);
  EXPECT_FALSE(engine.Run(q).cache_hit);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST(QueryEngineTest, ValidateFlagsBadQueries) {
  QueryEngine engine(TwoTrianglesAndK4(), {});
  Query q;
  q.k = 0;  // invalid: k >= 1 required
  EXPECT_NE(engine.Validate(q), "");
  q.k = 2;
  EXPECT_EQ(engine.Validate(q), "");
}

TEST(QueryEngineTest, OpenSnapshotRejectsBadEpsilonCleanly) {
  const std::string path = ::testing::TempDir() + "/bad_epsilon.snap";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, TwoTrianglesAndK4(), &error)) << error;
  EngineOptions options;
  options.solve.epsilon = 1.0;  // would TICL_CHECK-abort inside Solve
  const auto engine = QueryEngine::OpenSnapshot(
      path, SnapshotLoadMode::kCopy, options, &error);
  EXPECT_EQ(engine, nullptr);
  EXPECT_NE(error.find("epsilon"), std::string::npos) << error;
}

TEST(QueryEngineTest, RejectsParallelLocalSearchOnTheServingPath) {
  // Parallel local search would start threads inside pool workers, and
  // its answer depends on the thread count.
  const std::string path = ::testing::TempDir() + "/local_threads.snap";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, TwoTrianglesAndK4(), &error)) << error;
  EngineOptions options;
  options.solve.local.num_threads = 2;
  const auto engine = QueryEngine::OpenSnapshot(
      path, SnapshotLoadMode::kCopy, options, &error);
  EXPECT_EQ(engine, nullptr);
  EXPECT_NE(error.find("local.num_threads = 2"), std::string::npos) << error;
  EXPECT_DEATH(QueryEngine(TwoTrianglesAndK4(), options), "serving path");
}

TEST(QueryEngineTest, UncacheableResultsAreCounted) {
  EngineOptions options;
  options.cache_member_budget = 5;
  options.num_threads = 1;
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query huge;  // charge 19 > budget: served uncached
  huge.k = 2;
  huge.r = 5;
  engine.Run(huge);
  engine.Run(huge);  // still a miss, still uncacheable
  Query small;  // charge 4: cached fine
  small.k = 2;
  small.r = 1;
  engine.Run(small);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_uncacheable, 2u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST(QueryEngineTest, ConcurrentMissesOnSameKeyCoalesceToOneSolve) {
  // Hold the first (and only allowed) Solve open until the second
  // submission has provably attached to the pending entry; then release.
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  EngineOptions options;
  options.num_threads = 2;
  options.solve_started_hook_for_test = [release_future] {
    release_future.wait();
  };
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query q;
  q.k = 2;
  q.r = 2;
  auto first = engine.Submit(q);
  auto second = engine.Submit(q);
  // The second submission either coalesced onto the first's pending solve
  // or (rare scheduling) became the owner while the first waits — either
  // way exactly one solve may start; wait until both are accounted for.
  while (true) {
    const EngineStats stats = engine.stats();
    if (stats.queries == 2 && stats.cache_coalesced == 1) break;
    std::this_thread::yield();
  }
  release.set_value();

  const EngineResponse a = first.get();
  const EngineResponse b = second.get();
  // One Solve ran; the coalesced waiter shares the very result object.
  EXPECT_EQ(a.result.get(), b.result.get());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_coalesced, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.cache_coalesced,
            stats.queries);
}

TEST(QueryEngineTest, CoalescedWaitersReceiveTheOwnersBytes) {
  // One owner parked inside its solve, three callers attached to it: all
  // four answers must point at the one string the owner formatted, and
  // only the owner reports solve time. The cache is off, so the bytes
  // travel through the pending future alone.
  constexpr int kCallers = 4;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  EngineOptions options;
  options.num_threads = kCallers;
  options.cache_member_budget = 0;
  options.solve_started_hook_for_test = [release_future] {
    release_future.wait();
  };
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query q;
  q.k = 2;
  q.r = 2;
  std::vector<std::future<EngineResponse>> futures;
  for (int i = 0; i < kCallers; ++i) futures.push_back(engine.Submit(q));
  while (engine.stats().cache_coalesced < kCallers - 1) {
    std::this_thread::yield();
  }
  release.set_value();

  std::vector<EngineResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());
  int owners = 0;
  for (const EngineResponse& response : responses) {
    ASSERT_NE(response.bytes_owner, nullptr);
    EXPECT_EQ(response.communities.data(),
              responses.front().communities.data());
    if (response.cache_hit) {
      EXPECT_EQ(response.solve_seconds, 0.0);
    } else {
      ++owners;
      EXPECT_GT(response.solve_seconds, 0.0);
    }
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(AnswerBytes(responses.front()),
            FormatCommunitiesJson(*responses.front().result));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_uncacheable, 1u);
  EXPECT_EQ(stats.cache_coalesced, static_cast<std::uint64_t>(kCallers - 1));
}

// -- Outcome accounting, TTL, negative caching ------------------------------

TEST(QueryEngineCacheTest, EveryQueryLandsInExactlyOneOutcomeCounter) {
  // A workload that exercises all four outcomes: hits, misses, a
  // coalesced wait (covered by the dedicated dedup test), and both
  // uncacheable flavours (oversized result; disabled cache).
  EngineOptions options;
  options.cache_member_budget = 5;
  options.num_threads = 1;
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query small;  // charge 4: cacheable
  small.k = 2;
  small.r = 1;
  Query huge;  // charge 19 > budget: uncacheable
  huge.k = 2;
  huge.r = 5;

  engine.Run(small);                        // miss
  EXPECT_TRUE(engine.Run(small).cache_hit); // hit
  engine.Run(huge);                         // uncacheable (reclassified)
  engine.Run(huge);                         // uncacheable again
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_uncacheable, 2u);
  ExpectOutcomeInvariant(stats);

  // Disabled cache: every solve is an uncacheable outcome, never a miss.
  EngineOptions disabled;
  disabled.cache_member_budget = 0;
  disabled.num_threads = 1;
  QueryEngine uncached(TwoTrianglesAndK4(), disabled);
  uncached.Run(small);
  uncached.Run(small);
  const EngineStats uncached_stats = uncached.stats();
  EXPECT_EQ(uncached_stats.queries, 2u);
  EXPECT_EQ(uncached_stats.cache_misses, 0u);
  EXPECT_EQ(uncached_stats.cache_uncacheable, 2u);
  ExpectOutcomeInvariant(uncached_stats);
}

TEST(QueryEngineCacheTest, NegativeResultsAreCachedAndCounted) {
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query none;  // k above the degeneracy (3): zero communities
  none.k = 5;
  none.r = 3;
  const EngineResponse first = engine.Run(none);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.result->communities.empty());

  // The recomputation the negative entry exists to avoid:
  const EngineResponse second = engine.Run(none);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.get(), first.result.get());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_negative_hits, 1u);
  EXPECT_EQ(stats.cache_charge, 1u);  // floored, not free
  ExpectOutcomeInvariant(stats);
}

TEST(QueryEngineCacheTest, TtlExpiresEntriesWithInjectedClock) {
  auto now = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::time_point{});
  EngineOptions options;
  options.num_threads = 1;
  options.cache_ttl_ms = 100;
  options.cache_clock_for_test = [now] { return *now; };
  QueryEngine engine(TwoTrianglesAndK4(), options);

  Query q;
  q.k = 2;
  q.r = 1;
  engine.Run(q);
  *now += std::chrono::milliseconds(99);
  EXPECT_TRUE(engine.Run(q).cache_hit);  // still fresh
  *now += std::chrono::milliseconds(1);
  const EngineResponse after = engine.Run(q);  // 100ms old: expired
  EXPECT_FALSE(after.cache_hit);
  *now += std::chrono::milliseconds(50);
  EXPECT_TRUE(engine.Run(q).cache_hit);  // the re-solve re-cached it

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_expired, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
  ExpectOutcomeInvariant(stats);
}

// -- ApplyDelta -------------------------------------------------------------

TEST(QueryEngineDeltaTest, ApplyDeltaMatchesFreshEngineBitForBit) {
  // The acceptance oracle: ~1% random churn, then every query answer and
  // the whole CoreIndex must equal a from-scratch engine on the same
  // edited graph.
  Graph g = WeightedChungLu(41, 800);
  const GraphDelta delta =
      RandomDelta(g, /*seed=*/7, /*inserts=*/g.num_edges() / 100,
                  /*deletes=*/g.num_edges() / 100, /*weight_updates=*/10);
  const Graph edited = ApplyDeltaToGraph(g, delta);

  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;

  EXPECT_TRUE(engine.graph().fingerprint() == edited.fingerprint());
  QueryEngine fresh(edited, options);
  ASSERT_EQ(engine.core_index().degeneracy(),
            fresh.core_index().degeneracy());
  EXPECT_EQ(ToVector(engine.core_index().core_numbers()),
            ToVector(fresh.core_index().core_numbers()));
  for (VertexId k = 1; k <= fresh.core_index().degeneracy(); ++k) {
    EXPECT_EQ(engine.core_index().CoreMembers(k),
              fresh.core_index().CoreMembers(k))
        << "level " << k;
  }

  const std::vector<Query> queries = MixedQueries();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const EngineResponse maintained = engine.Run(queries[i]);
    const EngineResponse rebuilt = fresh.Run(queries[i]);
    ExpectIdentical(*maintained.result, *rebuilt.result, i);
  }
  EXPECT_EQ(engine.stats().deltas_applied, 1u);
}

TEST(QueryEngineDeltaTest, ApplyDeltaInvalidatesTheCache) {
  QueryEngine engine(TwoTrianglesAndK4(), {});
  Query q;
  q.k = 2;
  q.r = 1;
  q.aggregation = AggregationSpec::Sum();
  const EngineResponse before = engine.Run(q);
  EXPECT_TRUE(engine.Run(q).cache_hit);

  // Isolate vertex 9 (weight 100): the old top answer (K4, influence 106)
  // is gone — the best sum 2-core is now {0..5} at 78.
  GraphDelta delta;
  delta.delete_edges = {Edge{6, 9}, Edge{7, 9}, Edge{8, 9}};
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;

  const EngineResponse after = engine.Run(q);
  EXPECT_FALSE(after.cache_hit);  // cache was dropped, this re-solved
  EXPECT_NE(before.result->communities[0].influence,
            after.result->communities[0].influence);
  EXPECT_EQ(engine.stats().cache_charge,
            after.result->communities[0].members.size());
}

TEST(QueryEngineDeltaTest, InvalidDeltaLeavesServingStateUntouched) {
  QueryEngine engine(TwoTrianglesAndK4(), {});
  const GraphFingerprint before = engine.graph().fingerprint();
  GraphDelta bad;
  bad.insert_edges = {Edge{0, 1}};  // already present
  std::string error;
  EXPECT_FALSE(engine.ApplyDelta(bad, &error));
  EXPECT_NE(error, "");
  EXPECT_TRUE(engine.graph().fingerprint() == before);
  EXPECT_EQ(engine.stats().deltas_applied, 0u);
}

TEST(QueryEngineDeltaTest, MmapEngineBecomesHeapOwnedAfterDelta) {
  Graph g = WeightedChungLu(53, 300);
  const std::string path = ::testing::TempDir() + "/delta_mmap.snap";
  std::string error;
  const CoreIndex index(g);
  SaveSnapshotOptions save;
  save.core_index = &index;
  ASSERT_TRUE(SaveSnapshot(path, g, save, &error)) << error;

  auto engine = QueryEngine::OpenSnapshot(path, SnapshotLoadMode::kMmap, {},
                                          &error);
  ASSERT_NE(engine, nullptr) << error;
  EXPECT_TRUE(engine->snapshot_mapped());
  EXPECT_TRUE(engine->index_from_snapshot());

  const GraphDelta delta = RandomDelta(g, 3, 5, 5, 0);
  ASSERT_TRUE(engine->ApplyDelta(delta, &error)) << error;
  EXPECT_FALSE(engine->snapshot_mapped());
  EXPECT_FALSE(engine->index_from_snapshot());

  // Still answers correctly against the edited graph.
  const Graph edited = ApplyDeltaToGraph(g, delta);
  Query q;
  q.k = 2;
  q.r = 3;
  const EngineResponse response = engine->Run(q);
  EXPECT_EQ(ValidateResult(edited, q, *response.result), "");
}

TEST(QueryEngineDeltaTest, ConcurrentQueriesDuringApplyDelta) {
  // TSan target: queries race ApplyDelta swaps. Every answer must be
  // valid for *some* serving state (the one the query pinned), and the
  // engine must never crash or deadlock.
  Graph g = WeightedChungLu(61, 400);
  const Graph original = g;
  EngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(std::move(g), options);

  // Precompute the delta chain and each stage's reference graph.
  constexpr int kDeltas = 6;
  std::vector<Graph> stages{original};
  std::vector<GraphDelta> deltas;
  for (int i = 0; i < kDeltas; ++i) {
    const Graph& parent = stages.back();
    deltas.push_back(RandomDelta(parent, 100 + i, 10, 10, 5));
    stages.push_back(ApplyDeltaToGraph(parent, deltas.back()));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad_results{0};
  std::vector<std::thread> query_threads;
  for (int t = 0; t < 3; ++t) {
    query_threads.emplace_back([&, t] {
      const std::vector<Query> queries = MixedQueries();
      std::size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const Query& q = queries[i++ % queries.size()];
        const EngineResponse response = engine.Run(q);
        // The answer must validate against at least one chain stage (we
        // cannot know which state the query pinned).
        bool ok = false;
        for (const Graph& stage : stages) {
          if (ValidateResult(stage, q, *response.result).empty()) {
            ok = true;
            break;
          }
        }
        if (!ok) bad_results.fetch_add(1);
      }
    });
  }

  std::string error;
  for (const GraphDelta& delta : deltas) {
    ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;
  }
  stop.store(true);
  for (std::thread& thread : query_threads) thread.join();
  EXPECT_EQ(bad_results.load(), 0);
  EXPECT_EQ(engine.stats().deltas_applied,
            static_cast<std::uint64_t>(kDeltas));

  // After the dust settles the engine answers exactly like a fresh build
  // of the final stage.
  QueryEngine fresh(stages.back(), options);
  const std::vector<Query> queries = MixedQueries();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(*engine.Run(queries[i]).result,
                    *fresh.Run(queries[i]).result, i);
  }
}

// -- Partial invalidation ---------------------------------------------------

// On the hand-analyzed fixture: vertices 0..5 (two bridged triangles) are
// the 2-core shell, K4 = {6,7,8,9} is the only 3-core. An edit entirely
// inside the shell cannot perturb any k=3 answer.

TEST(QueryEngineDeltaTest, PartialInvalidationKeepsUnaffectedKLevels) {
  Graph g = TwoTrianglesAndK4();
  const Graph reference = g;
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);

  Query q2;
  q2.k = 2;
  q2.r = 2;
  Query q3;
  q3.k = 3;
  q3.r = 1;
  const EngineResponse before3 = engine.Run(q3);
  engine.Run(q2);
  EXPECT_TRUE(engine.Run(q2).cache_hit);
  EXPECT_TRUE(engine.Run(q3).cache_hit);

  // Insert {0, 3}: both endpoints at core 2, no core number changes (the
  // new triangle {0,2,3} is still only a 2-core). Affected levels: k <= 2.
  GraphDelta delta;
  delta.insert_edges = {Edge{0, 3}};
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;
  const Graph edited = ApplyDeltaToGraph(reference, delta);

  // k=3 survived the sweep and is served from cache — and the kept entry
  // is exactly what a fresh solve on the edited graph returns.
  const EngineResponse after3 = engine.Run(q3);
  EXPECT_TRUE(after3.cache_hit);
  EXPECT_EQ(after3.result.get(), before3.result.get());
  ExpectIdentical(*after3.result, Solve(edited, q3), 0);

  // k=2 was evicted and re-solves against the edited graph.
  const EngineResponse after2 = engine.Run(q2);
  EXPECT_FALSE(after2.cache_hit);
  ExpectIdentical(*after2.result, Solve(edited, q2), 1);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_partial_kept, 1u);
  EXPECT_EQ(stats.cache_partial_evicted, 1u);
  ExpectOutcomeInvariant(stats);
}

TEST(QueryEngineDeltaTest, CoreCrossingEvictsTheCrossedLevels) {
  Graph g = TwoTrianglesAndK4();
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);

  Query q2;
  q2.k = 2;
  q2.r = 2;
  Query q3;
  q3.k = 3;
  q3.r = 1;
  engine.Run(q2);
  engine.Run(q3);

  // Delete {8, 9}: K4 degrades to a 4-cycle — all of {6,7,8,9} fall from
  // core 3 to core 2, crossing level 3. Both entries must go: k=3 because
  // its member set changed, k=2 because the edited edge sat inside the
  // 2-core.
  GraphDelta delta;
  delta.delete_edges = {Edge{8, 9}};
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;

  EXPECT_FALSE(engine.Run(q3).cache_hit);
  EXPECT_FALSE(engine.Run(q2).cache_hit);
  EXPECT_EQ(engine.stats().cache_partial_kept, 0u);
  EXPECT_EQ(engine.stats().cache_partial_evicted, 2u);
}

TEST(QueryEngineDeltaTest, ReweightEvictsLevelsUpToTheVertexCore) {
  Graph g = TwoTrianglesAndK4();
  const Graph reference = g;
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);

  Query q2;
  q2.k = 2;
  q2.r = 2;
  Query q3;
  q3.k = 3;
  q3.r = 1;
  engine.Run(q2);
  engine.Run(q3);

  // Reweight vertex 4 (core 2): structure untouched, so only levels
  // k <= 2 can see the new weight.
  GraphDelta delta;
  delta.weight_updates = {WeightUpdate{4, 42.0}};
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;

  EXPECT_TRUE(engine.Run(q3).cache_hit);
  EXPECT_FALSE(engine.Run(q2).cache_hit);
  ExpectIdentical(*engine.Run(q2).result,
                  Solve(ApplyDeltaToGraph(reference, delta), q2), 0);

  // Reweight vertex 9 (core 3): now even k=3 answers are suspect.
  GraphDelta high;
  high.weight_updates = {WeightUpdate{9, 1.5}};
  ASSERT_TRUE(engine.ApplyDelta(high, &error)) << error;
  EXPECT_FALSE(engine.Run(q3).cache_hit);
}

TEST(QueryEngineDeltaTest, BalancedDensityIsEvictedOnAnyReweight) {
  Graph g = TwoTrianglesAndK4();
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);

  // Same k-level, different sensitivity: balanced density consults the
  // whole graph's weight (w(V \ H)), sum does not.
  Query sum3;
  sum3.k = 3;
  sum3.r = 1;
  Query bd3;
  bd3.k = 3;
  bd3.r = 1;
  bd3.aggregation = AggregationSpec::BalancedDensity();
  engine.Run(sum3);
  engine.Run(bd3);

  // Reweight far below the 3-core: sum@3 keeps, balanced-density@3 goes.
  GraphDelta delta;
  delta.weight_updates = {WeightUpdate{0, 99.0}};
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;

  EXPECT_TRUE(engine.Run(sum3).cache_hit);
  EXPECT_FALSE(engine.Run(bd3).cache_hit);
}

TEST(QueryEngineDeltaTest, WholesaleClearKillSwitchDisablesPartialKeeps) {
  Graph g = TwoTrianglesAndK4();
  EngineOptions options;
  options.num_threads = 1;
  options.cache_partial_invalidation = false;
  QueryEngine engine(std::move(g), options);

  Query q3;
  q3.k = 3;
  q3.r = 1;
  engine.Run(q3);
  GraphDelta delta;
  delta.insert_edges = {Edge{0, 3}};  // provably cannot touch k=3
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;

  EXPECT_FALSE(engine.Run(q3).cache_hit);  // dropped anyway: wholesale
  EXPECT_EQ(engine.stats().cache_partial_kept, 0u);
  EXPECT_EQ(engine.stats().cache_partial_evicted, 0u);
}

TEST(QueryEngineDeltaTest, ChurnOracleCacheServedAnswersAreExact) {
  // The acceptance oracle for partial invalidation: a random delta stream
  // interleaved with queries across k/r/aggregation; *every* engine
  // answer — cache-served or fresh — must be bit-identical to a fresh
  // Solve on the current graph. A single wrong keep-decision surfaces
  // here as a stale answer.
  Graph g = WeightedChungLu(71, 500);
  Graph current = g;
  EngineOptions options;
  options.num_threads = 2;
  QueryEngine engine(std::move(g), options);

  std::vector<Query> queries = MixedQueries();
  {
    // High k-levels — the entries deltas in a low-core shell should keep —
    // plus one far above the degeneracy (a negative entry that survives
    // every delta below it).
    Query high;
    high.r = 2;
    for (const VertexId k : {4u, 5u, 6u}) {
      high.k = k;
      queries.push_back(high);
    }
    Query none;
    none.k = 40;
    none.r = 1;
    queries.push_back(none);
  }

  constexpr int kRounds = 8;
  std::string error;
  std::uint64_t served_bytes_checked = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const EngineResponse response = engine.Run(queries[i]);
      const SearchResult fresh = Solve(current, queries[i]);
      ExpectIdentical(*response.result, fresh, i);
      // The bytes a hit is served from were formatted when the entry was
      // filled, possibly several deltas ago: they must still be exactly
      // what the current graph's answer formats to.
      if (response.cache_hit) {
        ++served_bytes_checked;
        EXPECT_EQ(AnswerBytes(response), FormatCommunitiesJson(fresh))
            << "round " << round << " query " << i;
        EXPECT_EQ(response.solve_seconds, 0.0);
      }
    }
    const GraphDelta delta = RandomDelta(current, /*seed=*/1000 + round,
                                         /*inserts=*/4, /*deletes=*/4,
                                         /*weight_updates=*/2);
    ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;
    current = ApplyDeltaToGraph(current, delta);
  }

  const EngineStats stats = engine.stats();
  // The k=40 negative entry is untouchable by any delta below the
  // degeneracy: it must have been kept by every sweep and hit every round
  // after the first.
  EXPECT_GE(stats.cache_partial_kept,
            static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_GT(stats.cache_partial_evicted, 0u);
  EXPECT_GE(stats.cache_hits, static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_GE(stats.cache_negative_hits,
            static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_EQ(stats.deltas_applied, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(served_bytes_checked, stats.cache_hits);
  ExpectOutcomeInvariant(stats);
}

// -- Prefix serving ---------------------------------------------------------

/// One prefix-stable solver configuration.
struct PrefixCase {
  SolverKind solver;
  AggregationSpec aggregation;
  VertexId k;
  bool tonic;
};

std::vector<PrefixCase> PrefixCases() {
  std::vector<PrefixCase> cases;
  for (const bool tonic : {false, true}) {
    cases.push_back({SolverKind::kAuto, AggregationSpec::Min(), 3, tonic});
    cases.push_back({SolverKind::kAuto, AggregationSpec::Max(), 2, tonic});
    cases.push_back({SolverKind::kAuto, AggregationSpec::Sum(), 4, tonic});
    cases.push_back(
        {SolverKind::kImproved, AggregationSpec::SumSurplus(0.5), 4, tonic});
    cases.push_back({SolverKind::kNaive, AggregationSpec::Sum(), 4, tonic});
    cases.push_back({SolverKind::kMinPeel, AggregationSpec::Min(), 2, tonic});
    cases.push_back(
        {SolverKind::kMaxComponents, AggregationSpec::Max(), 3, tonic});
  }
  return cases;
}

Query PrefixQuery(const PrefixCase& c, std::uint32_t r) {
  Query q;
  q.k = c.k;
  q.r = r;
  q.aggregation = c.aggregation;
  q.non_overlapping = c.tonic;
  return q;
}

/// Answers `q` through the engine and checks it against a fresh Solve()
/// on `current`: the result and the bytes the wire would carry.
EngineResponse RunAndCompare(QueryEngine* engine, const Graph& current,
                             const Query& q, const SolveOptions& options,
                             const std::string& label) {
  EngineResponse response = engine->Run(q);
  const SearchResult fresh = Solve(current, q, options);
  ExpectIdentical(*response.result, fresh, q.r);
  EXPECT_EQ(AnswerBytes(response), FormatCommunitiesJson(fresh))
      << label << " r=" << q.r;
  return response;
}

TEST(QueryEnginePrefixTest, ChurnOracleEveryPrefixStableSolverEveryR) {
  // Every prefix-stable solver, TIC and TONIC: each round asks for r =
  // R, then every r in 1..R+2 in a shuffled order, then a delta lands.
  // Every answer — a prefix of a longer entry, a whole entry or a fresh
  // solve — must equal a fresh Solve() at its own r on the current graph.
  constexpr std::uint32_t kBigR = 6;
  std::uint64_t prefix_hits = 0;
  for (const PrefixCase& c : PrefixCases()) {
    Graph g = WeightedChungLu(91, 400);
    Graph current = g;
    EngineOptions options;
    options.num_threads = 1;
    options.solve.solver = c.solver;
    QueryEngine engine(std::move(g), options);
    const std::string label = QueryToString(PrefixQuery(c, kBigR)) +
                              " solver " + SolverKindName(c.solver);
    std::mt19937_64 rng(c.k * 131 + (c.tonic ? 7 : 0));
    std::string error;
    for (int round = 0; round < 3; ++round) {
      RunAndCompare(&engine, current, PrefixQuery(c, kBigR), options.solve,
                    label);
      std::vector<std::uint32_t> rs;
      for (std::uint32_t r = 1; r <= kBigR + 2; ++r) rs.push_back(r);
      std::shuffle(rs.begin(), rs.end(), rng);
      for (const std::uint32_t r : rs) {
        RunAndCompare(&engine, current, PrefixQuery(c, r), options.solve,
                      label);
      }
      const GraphDelta delta = RandomDelta(current, /*seed=*/500 + round,
                                           /*inserts=*/4, /*deletes=*/4,
                                           /*weight_updates=*/2);
      ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;
      current = ApplyDeltaToGraph(current, delta);
    }
    const EngineStats stats = engine.stats();
    ExpectOutcomeInvariant(stats);
    EXPECT_LE(stats.cache_prefix_hits, stats.cache_hits);
    prefix_hits += stats.cache_prefix_hits;
  }
  EXPECT_GT(prefix_hits, 0u);
}

TEST(QueryEnginePrefixTest, TheMinPeelSolvesOnceForEverySmallR) {
  // The min peel costs the same at any r, so a miss solves at the floor
  // (32) and every later r up to it is a prefix hit.
  Graph g = WeightedChungLu(93, 500);
  const Graph reference = g;
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);
  const PrefixCase min_peel{SolverKind::kAuto, AggregationSpec::Min(), 3,
                            false};
  RunAndCompare(&engine, reference, PrefixQuery(min_peel, 3), {}, "min");
  for (const std::uint32_t r : {5u, 8u, 1u, 20u}) {
    EXPECT_TRUE(
        RunAndCompare(&engine, reference, PrefixQuery(min_peel, r), {}, "min")
            .cache_hit)
        << r;
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.cache_prefix_hits, 4u);

  // Improved search's work grows with r: it solves at r itself, and a
  // larger r replaces the entry.
  const PrefixCase sum{SolverKind::kAuto, AggregationSpec::Sum(), 4, false};
  RunAndCompare(&engine, reference, PrefixQuery(sum, 2), {}, "sum");
  EXPECT_FALSE(engine.Run(PrefixQuery(sum, 3)).cache_hit);
  EXPECT_TRUE(engine.Run(PrefixQuery(sum, 2)).cache_hit);
  EXPECT_TRUE(engine.Run(PrefixQuery(sum, 3)).cache_hit);
  stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_prefix_hits, 5u);
  ExpectOutcomeInvariant(stats);
}

/// Total member count of a fresh Solve() at r: the cache charge of its
/// answer.
std::size_t AnswerCharge(const Graph& g, const Query& q, std::uint32_t r,
                         const SolveOptions& options = {}) {
  Query at_r = q;
  at_r.r = r;
  std::size_t members = 0;
  for (const Community& c : Solve(g, at_r, options).communities) {
    members += c.members.size();
  }
  return std::max<std::size_t>(members, 1);
}

TEST(QueryEnginePrefixTest, OnlyTheTicMinPeelSolvesAtTheFloor) {
  // Every other prefix-stable solver caches the answer at r itself: its
  // entry is charged exactly the answer at r.
  Graph g = WeightedChungLu(93, 500);
  const Graph reference = g;
  for (const PrefixCase& c : PrefixCases()) {
    Graph copy = g;
    EngineOptions options;
    options.num_threads = 1;
    options.solve.solver = c.solver;
    QueryEngine engine(std::move(copy), options);
    const Query q = PrefixQuery(c, 1);
    const std::string label =
        QueryToString(q) + " solver " + SolverKindName(c.solver);
    RunAndCompare(&engine, reference, q, options.solve, label);
    const bool floored =
        ResolveSolver(q, c.solver) == SolverKind::kMinPeel && !c.tonic;
    EXPECT_EQ(engine.stats().cache_charge,
              AnswerCharge(reference, q, floored ? 32 : 1, options.solve))
        << label;
  }
}

TEST(QueryEnginePrefixTest, AKeyTiedAtTheFloorCutSolvesAtROnItsNextMiss) {
  // Every weight equal: the min peel's answer at 32 ties at r = 3, so the
  // first miss solves twice (at 32, then at 3). Once a delta has evicted
  // both entries, the next miss of that key solves only at r = 3, and a
  // larger r replaces the entry, as without the floor.
  Graph g = WeightedChungLu(95, 400);
  g.SetWeights(std::vector<Weight>(g.num_vertices(), 1.0));
  Graph current = g;
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(std::move(g), options);
  const PrefixCase min_peel{SolverKind::kAuto, AggregationSpec::Min(), 3,
                            false};
  const Query q = PrefixQuery(min_peel, 3);
  ASSERT_EQ(FitPrefix(Solve(current, PrefixQuery(min_peel, 32)), 32, 3),
            PrefixFit::kTied);
  RunAndCompare(&engine, current, q, {}, "min");
  EXPECT_EQ(engine.stats().cache_charge,
            AnswerCharge(current, q, 32) + AnswerCharge(current, q, 3));

  // Reweighting a vertex of the top core (to the weight it has) evicts
  // every level at or below its core number.
  const std::span<const VertexId> core = engine.core_index().core_numbers();
  const auto top = static_cast<VertexId>(
      std::max_element(core.begin(), core.end()) - core.begin());
  ASSERT_GE(core[top], q.k);
  GraphDelta delta;
  delta.weight_updates = {WeightUpdate{top, 1.0}};
  std::string error;
  ASSERT_TRUE(engine.ApplyDelta(delta, &error)) << error;
  current = ApplyDeltaToGraph(current, delta);
  EXPECT_EQ(engine.stats().cache_charge, 0u);

  EXPECT_FALSE(RunAndCompare(&engine, current, q, {}, "min").cache_hit);
  EXPECT_EQ(engine.stats().cache_charge, AnswerCharge(current, q, 3));
  EXPECT_FALSE(
      RunAndCompare(&engine, current, PrefixQuery(min_peel, 5), {}, "min")
          .cache_hit);
  EXPECT_EQ(engine.stats().cache_charge, AnswerCharge(current, q, 5));
  // The entry at 5 ties at 3 as well: r = 3 is solved once more, at r,
  // under its own key.
  EXPECT_FALSE(RunAndCompare(&engine, current, q, {}, "min").cache_hit);
  EXPECT_EQ(engine.stats().cache_charge,
            AnswerCharge(current, q, 5) + AnswerCharge(current, q, 3));
  ExpectOutcomeInvariant(engine.stats());
}

TEST(QueryEnginePrefixTest, FloorAnswerTooBigForTheBudgetCachesTheAnswerAtR) {
  // The budget holds the answer at r = 3 but not the floor's answer at
  // 32, so the miss caches the answer at r = 3, as it would without the
  // floor, instead of leaving the query uncacheable.
  Graph g = WeightedChungLu(93, 500);
  const Graph reference = g;
  const PrefixCase min_peel{SolverKind::kAuto, AggregationSpec::Min(), 3,
                            false};
  const Query q = PrefixQuery(min_peel, 3);
  ASSERT_LT(AnswerCharge(reference, q, 3), AnswerCharge(reference, q, 32));
  EngineOptions options;
  options.num_threads = 1;
  options.cache_member_budget = AnswerCharge(reference, q, 3);
  QueryEngine engine(std::move(g), options);
  EXPECT_FALSE(RunAndCompare(&engine, reference, q, {}, "min").cache_hit);
  EXPECT_TRUE(RunAndCompare(&engine, reference, q, {}, "min").cache_hit);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_uncacheable, 0u);
  EXPECT_EQ(stats.cache_prefix_hits, 0u);
  ExpectOutcomeInvariant(stats);
}

TEST(QueryEnginePrefixTest, TiesAtTheCutForceASolveThatIsThenCached) {
  // Every weight equal: min and max communities all tie, so most r < R
  // cannot be cut from the R entry. They must be solved (and then hit
  // from their own entry), and still equal a fresh solve.
  Graph g = WeightedChungLu(95, 400);
  g.SetWeights(std::vector<Weight>(g.num_vertices(), 1.0));
  constexpr std::uint32_t kBigR = 6;
  std::uint64_t forced = 0;
  for (const PrefixCase& c : PrefixCases()) {
    Graph copy = g;
    EngineOptions options;
    options.num_threads = 1;
    options.solve.solver = c.solver;
    QueryEngine engine(std::move(copy), options);
    const std::string label = QueryToString(PrefixQuery(c, kBigR)) +
                              " solver " + SolverKindName(c.solver);
    RunAndCompare(&engine, g, PrefixQuery(c, kBigR), options.solve, label);
    for (std::uint32_t r = 1; r <= kBigR; ++r) {
      RunAndCompare(&engine, g, PrefixQuery(c, r), options.solve, label);
    }
    forced += engine.stats().cache_misses - 1;
    // Second pass: everything is resident now, tied or not.
    for (std::uint32_t r = 1; r <= kBigR; ++r) {
      EXPECT_TRUE(RunAndCompare(&engine, g, PrefixQuery(c, r), options.solve,
                                label)
                      .cache_hit)
          << label << " r=" << r;
    }
    ExpectOutcomeInvariant(engine.stats());
  }
  EXPECT_GT(forced, 0u);
}

// -- ApplyDelta TOCTOU ------------------------------------------------------

TEST(QueryEngineDeltaTest, RacingSiblingDeltasCannotApplyAgainstWrongBase) {
  // Two delta snapshot files recorded against the *same* parent race into
  // one engine. Whichever enters ApplyDelta's critical section second
  // must fail the (in-section) parent re-check: with the check outside
  // the lock — the old code — both pass it before either swap lands, and
  // the loser silently applies edits against a base it never saw.
  Graph g = WeightedChungLu(83, 2000);
  const GraphDelta delta_a = RandomDelta(g, /*seed=*/11, 5, 5, 2);
  const GraphDelta delta_b = RandomDelta(g, /*seed=*/22, 5, 5, 2);
  const std::string path_a = ::testing::TempDir() + "/toctou_a.snap";
  const std::string path_b = ::testing::TempDir() + "/toctou_b.snap";
  std::string error;
  ASSERT_TRUE(SaveDeltaSnapshot(path_a, delta_a, g.fingerprint(), &error))
      << error;
  ASSERT_TRUE(SaveDeltaSnapshot(path_b, delta_b, g.fingerprint(), &error))
      << error;

  constexpr int kRounds = 4;  // derandomize scheduling a little
  for (int round = 0; round < kRounds; ++round) {
    Graph copy = g;
    EngineOptions options;
    options.num_threads = 1;
    QueryEngine engine(std::move(copy), options);

    std::atomic<int> ready{0};
    bool ok_a = false, ok_b = false;
    std::string error_a, error_b;
    const auto race = [&ready, &engine](const std::string& path, bool* ok,
                                        std::string* err) {
      ++ready;
      while (ready.load() < 2) std::this_thread::yield();
      *ok = engine.ApplyDeltaSnapshotFile(path, err);
    };
    std::thread ta(race, path_a, &ok_a, &error_a);
    std::thread tb(race, path_b, &ok_b, &error_b);
    ta.join();
    tb.join();

    ASSERT_EQ((ok_a ? 1 : 0) + (ok_b ? 1 : 0), 1)
        << "round " << round << ": both racing deltas applied (a: "
        << error_a << ", b: " << error_b << ")";
    const std::string& loser_error = ok_a ? error_b : error_a;
    EXPECT_NE(loser_error.find("different parent"), std::string::npos)
        << loser_error;
    const GraphDelta& winner = ok_a ? delta_a : delta_b;
    EXPECT_TRUE(engine.graph().fingerprint() ==
                ApplyDeltaToGraph(g, winner).fingerprint());
    EXPECT_EQ(engine.stats().deltas_applied, 1u);
  }
}

}  // namespace
}  // namespace ticl
