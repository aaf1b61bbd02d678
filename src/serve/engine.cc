#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "algo/core_maintenance.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/check.h"
#include "util/timing.h"

namespace ticl {

namespace {

/// What the cache's keep rule needs to know about a query's answer.
CacheEntryMeta MetaFor(const Query& query) {
  CacheEntryMeta meta;
  meta.k = query.k;
  // Balanced density is the one aggregation that consults whole-graph
  // state (w(V \ H) via total_weight()); its entries must go whenever any
  // weight moves, at any k.
  meta.total_weight_sensitive =
      query.aggregation.kind == Aggregation::kBalancedDensity;
  return meta;
}

EngineResponse Answered(CachedAnswer answer, bool cache_hit,
                        double solve_seconds) {
  EngineResponse response;
  response.result = std::move(answer.result);
  response.bytes_owner = std::move(answer.communities_json);
  response.communities = answer.communities;
  response.cache_hit = cache_hit;
  response.solve_seconds = solve_seconds;
  return response;
}

/// The least r a cache-filling solve of the min peel (TIC) runs at. The
/// min peel costs nearly the same whatever r is: it peels the whole
/// k-core once and ranks the last steps. On the 64k-vertex delta-churn
/// graph it took 8.4 ms at r = 3 and 10.1 ms at r = 32 at k = 4
/// (BENCH_e2e.json, section prefix_cache, solve_floor_probe), so one
/// solve at 32 answers every r up to 32 for about 20% more than one.
/// The gain holds only where the influences at the cut differ: a tied
/// cut is solved again at r (see Run). Every other solver solves at r:
/// the work of improved and naive search grows with r, and the max and
/// TONIC components have no workload that pages through r to measure a
/// floor against.
constexpr std::uint32_t kMinPeelSolveFloor = 32;

/// Prefix keys whose floor solve tied at the cut it was asked for are
/// remembered, up to this many (then forgotten all at once), so their
/// later misses solve once at r instead of at the floor and again at r.
constexpr std::size_t kMaxTiedFloorKeys = 1024;

bool FloorApplies(const Query& query, SolverKind solver) {
  return ResolveSolver(query, solver) == SolverKind::kMinPeel &&
         !query.non_overlapping;
}

/// Formats the reply bytes of `result`, an answer at `solved_r`, once, on
/// the solving thread: the cache entry, every later hit and every
/// coalesced waiter share them.
SolvedAnswer FormatSolved(std::shared_ptr<const SearchResult> result,
                          std::uint32_t solved_r) {
  SolvedAnswer solved;
  solved.solved_r = solved_r;
  CachedAnswer& answer = solved.answer;
  answer.communities_json = std::make_shared<const std::string>(
      FormatCommunitiesJson(*result, &solved.community_ends));
  answer.communities = *answer.communities_json;
  answer.result = std::move(result);
  return solved;
}

SolvedAnswer SolveAndFormat(const Graph& g, const Query& query,
                            const SolveOptions& options) {
  return FormatSolved(
      std::make_shared<const SearchResult>(Solve(g, query, options)),
      query.r);
}

/// ValidateSolveOptions plus what only the engine forbids: parallel local
/// search would start threads inside pool workers, and its answer depends
/// on the thread count, so one engine could not promise one answer.
std::string ValidateEngineSolveOptions(const SolveOptions& solve) {
  if (solve.local.num_threads > 1) {
    return "parallel local search (local.num_threads = " +
           std::to_string(solve.local.num_threads) +
           ") is not supported on the serving path";
  }
  return ValidateSolveOptions(solve);
}

ResultCacheOptions CacheOptionsFor(const EngineOptions& options) {
  ResultCacheOptions cache;
  cache.member_budget = options.cache_member_budget;
  cache.ttl_ms = options.cache_ttl_ms;
  cache.clock_for_test = options.cache_clock_for_test;
  return cache;
}

}  // namespace

std::string CanonicalQueryKey(const Query& query, bool any_r) {
  // Inactive parameters must not split the key space: alpha only matters
  // under sum-surplus, beta only under weight density.
  const double alpha = query.aggregation.kind == Aggregation::kSumSurplus
                           ? query.aggregation.alpha
                           : 0.0;
  const double beta = query.aggregation.kind == Aggregation::kWeightDensity
                          ? query.aggregation.beta
                          : 0.0;
  char r[16] = "*";
  if (!any_r) std::snprintf(r, sizeof(r), "%u", query.r);
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "k=%u;r=%s;s=%u;no=%d;f=%d;a=%.17g;b=%.17g", query.k, r,
                query.size_limit, query.non_overlapping ? 1 : 0,
                static_cast<int>(query.aggregation.kind), alpha, beta);
  return buffer;
}

QueryEngine::QueryEngine(Graph graph, EngineOptions options)
    : QueryEngine(nullptr, std::move(graph), {}, options) {}

QueryEngine::QueryEngine(std::unique_ptr<MappedSnapshot> mapped,
                         Graph owned_graph,
                         const std::vector<unsigned char>& index_payload,
                         const EngineOptions& options)
    : base_solve_options_(options.solve),
      cache_partial_invalidation_(options.cache_partial_invalidation),
      solve_started_hook_for_test_(options.solve_started_hook_for_test),
      cache_(CacheOptionsFor(options)),
      pool_(options.num_threads) {
  const std::string options_problem =
      ValidateEngineSolveOptions(options.solve);
  TICL_CHECK_MSG(options_problem.empty(), options_problem.c_str());

  auto state = std::make_shared<ServingState>();
  state->mapped = std::move(mapped);
  state->owned_graph = std::move(owned_graph);
  state->graph = state->mapped != nullptr ? &state->mapped->graph()
                                          : &state->owned_graph;
  TICL_CHECK_MSG(state->graph->has_weights(),
                 "QueryEngine needs a weighted graph (SetWeights first)");
  if (state->mapped != nullptr && state->mapped->has_core_index()) {
    state->index = &state->mapped->core_index();
    state->index_from_snapshot = true;
  } else if (!index_payload.empty()) {
    // Copy-loaded snapshot carrying a persisted index: deserialize it
    // against our own graph copy and skip the decomposition. A section
    // that fails validation (stale or foreign, despite the checksum) is
    // not fatal — fall back to rebuilding from scratch.
    std::string index_error;
    std::unique_ptr<CoreIndex> restored = CoreIndex::Deserialize(
        *state->graph, index_payload.data(), index_payload.size(),
        /*copy_data=*/true, &index_error);
    if (restored != nullptr) {
      state->owned_index = std::move(restored);
      state->index_from_snapshot = true;
    } else {
      state->owned_index = std::make_unique<CoreIndex>(*state->graph);
    }
    state->index = state->owned_index.get();
  } else {
    state->owned_index = std::make_unique<CoreIndex>(*state->graph);
    state->index = state->owned_index.get();
  }
  state->solve = base_solve_options_;
  state->solve.core_index = state->index;
  state_ = std::move(state);
}

std::unique_ptr<QueryEngine> QueryEngine::OpenSnapshot(
    const std::string& path, SnapshotLoadMode mode, EngineOptions options,
    std::string* error) {
  const std::string options_problem =
      ValidateEngineSolveOptions(options.solve);
  if (!options_problem.empty()) {
    *error = "engine: " + options_problem;
    return nullptr;
  }
  if (mode == SnapshotLoadMode::kMmap) {
    std::unique_ptr<MappedSnapshot> mapped = MappedSnapshot::Open(path, error);
    if (mapped == nullptr) return nullptr;
    if (!mapped->graph().has_weights()) {
      *error = "snapshot: no vertex weights; re-save it from a weighted "
               "graph";
      return nullptr;
    }
    return std::unique_ptr<QueryEngine>(
        new QueryEngine(std::move(mapped), Graph(), {}, options));
  }
  Graph graph;
  std::vector<unsigned char> index_payload;
  if (!LoadSnapshotWithIndex(path, &graph, &index_payload, error)) {
    return nullptr;
  }
  if (!graph.has_weights()) {
    *error = "snapshot: no vertex weights; re-save it from a weighted graph";
    return nullptr;
  }
  return std::unique_ptr<QueryEngine>(
      new QueryEngine(nullptr, std::move(graph), index_payload, options));
}

std::shared_ptr<const QueryEngine::ServingState> QueryEngine::CurrentState()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

const Graph& QueryEngine::graph() const { return *CurrentState()->graph; }

const CoreIndex& QueryEngine::core_index() const {
  return *CurrentState()->index;
}

bool QueryEngine::snapshot_mapped() const {
  return CurrentState()->mapped != nullptr;
}

bool QueryEngine::index_from_snapshot() const {
  return CurrentState()->index_from_snapshot;
}

std::string QueryEngine::Validate(const Query& query) const {
  const std::shared_ptr<const ServingState> state = CurrentState();
  return ValidateQuery(query, *state->graph);
}

EngineResponse QueryEngine::Run(const Query& query) {
  // A prefix-stable solver's entry is keyed without r and answers every r
  // its prefix rule allows. The key with r names this exact query: it is
  // the coalescing key, and the cache key of every other query and of an
  // answer a tie at the cut keeps from being served as a prefix. A hit
  // needs only the first, so the second is built when it is needed.
  const bool prefix_stable =
      PrefixStableSolver(query, base_solve_options_.solver);
  const std::string key = CanonicalQueryKey(query, /*any_r=*/prefix_stable);
  std::string exact_key_storage;
  const auto exact_key = [&]() -> const std::string& {
    if (!prefix_stable) return key;
    if (exact_key_storage.empty()) exact_key_storage = CanonicalQueryKey(query);
    return exact_key_storage;
  };
  std::shared_ptr<const ServingState> state;
  std::shared_ptr<PendingSolve> pending;
  CachedAnswer hit;
  bool owner = false;
  std::uint64_t generation = 0;
  // The key this call's solve fills, and the r it solves at.
  const std::string* fill_key = &key;
  std::uint32_t solve_r = query.r;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries;
    state = state_;
    generation = generation_;
    if (cache_.enabled()) {
      ResultCache::Found found = cache_.Lookup(key, query.r);
      if (found.fit == PrefixFit::kTied) {
        fill_key = &exact_key();
        found = cache_.Lookup(*fill_key, query.r);
      } else if (FloorApplies(query, base_solve_options_.solver) &&
                 tied_floor_keys_.count(key) == 0) {
        solve_r = std::max(query.r, kMinPeelSolveFloor);
      }
      if (found.answer.result != nullptr) {
        ++stats_.cache_hits;
        if (query.r < found.solved_r) ++stats_.cache_prefix_hits;
        hit = std::move(found.answer);
      }
    }
    if (hit.result == nullptr) {
      pending = cache_.FindPending(exact_key());
      if (pending != nullptr) {
        ++stats_.cache_coalesced;
      } else {
        pending = std::make_shared<PendingSolve>();
        cache_.AddPending(exact_key(), pending);
        owner = true;
        // With the cache disabled no answer can ever be cached; that is
        // an `uncacheable` outcome, not a miss — every query must land in
        // exactly one of the four counters.
        if (cache_.enabled()) {
          ++stats_.cache_misses;
        } else {
          ++stats_.cache_uncacheable;
        }
      }
    }
  }
  if (hit.result != nullptr) {
    return Answered(TrimResult(std::move(hit), query.r), true, 0.0);
  }
  if (!owner) {
    // Another thread is already solving this exact query (possibly against
    // an older serving state — it was admitted before any swap, so its
    // answer is as valid as ours would have been at arrival time).
    return Answered(pending->future.get(), true, 0.0);
  }

  // What this call fills the cache with: the answer at solve_r, plus the
  // answer at r itself (under the exact key) when a tie at the cut keeps
  // the first from serving r. The last one answers the caller.
  std::vector<std::pair<const std::string*, SolvedAnswer>> fills;
  CachedAnswer answer;
  double solve_seconds = 0.0;
  try {
    // The test hook lives inside the try so a throwing hook exercises
    // the same retirement path a throwing solver would.
    if (solve_started_hook_for_test_) solve_started_hook_for_test_();
    const WallTimer timer;
    Query solve_query = query;
    solve_query.r = solve_r;
    fills.emplace_back(fill_key, SolveAndFormat(*state->graph, solve_query,
                                                state->solve));
    SolvedAnswer& first = fills.back().second;
    if (FitPrefix(*first.answer.result, solve_r, query.r) ==
        PrefixFit::kTied) {
      fills.emplace_back(&exact_key(),
                         SolveAndFormat(*state->graph, query, state->solve));
    } else if (solve_r > query.r && !cache_.Admits(*first.answer.result)) {
      // The floor's longer answer can never be cached; cache the answer
      // at r instead, as a solve at r would have.
      first = FormatSolved(TrimResult(first.answer, query.r).result, query.r);
    }
    solve_seconds = timer.ElapsedSeconds();
    const SolvedAnswer& solved = fills.back().second;
    answer = solved.answer;
    answer.communities = CutCommunities(*answer.communities_json,
                                        solved.community_ends, query.r);
    answer = TrimResult(std::move(answer), query.r);
  } catch (...) {
    // Solve normally aborts on contract violations, but allocation (or a
    // future solver) can throw. Retire the pending entry and fail its
    // waiters — leaving it would hang them and poison this key for every
    // later query.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cache_.RemovePending(exact_key(), pending);
    }
    pending->promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.RemovePending(exact_key(), pending);
    if (fills.size() > 1) {
      // The floor's answer tied at this query's cut, so it took two
      // solves. The weights that tied are likely to tie again after the
      // next delta: this key's later misses solve once, at r.
      if (tied_floor_keys_.size() >= kMaxTiedFloorKeys) {
        tied_floor_keys_.clear();
      }
      tied_floor_keys_.insert(key);
    }
    // A result computed against a retired generation must not seed the
    // cache: the delta may have changed this very answer (it stays a
    // plain miss — it did answer its caller).
    if (cache_.enabled() && generation == generation_) {
      ResultCache::InsertOutcome outcome{};
      for (auto& [target, solved] : fills) {
        outcome = cache_.Insert(*target, MetaFor(query), std::move(solved));
      }
      if (outcome == ResultCache::InsertOutcome::kUncacheable) {
        // Reclassify: the answer this call returns can never be cached
        // (its charge alone exceeds the whole budget), which the miss
        // counter claimed optimistically at lookup time.
        --stats_.cache_misses;
        ++stats_.cache_uncacheable;
      }
    }
  }
  pending->promise.set_value(answer);
  return Answered(std::move(answer), false, solve_seconds);
}

std::future<EngineResponse> QueryEngine::Submit(const Query& query) {
  auto task = std::make_shared<std::packaged_task<EngineResponse()>>(
      [this, query] { return Run(query); });
  auto future = task->get_future();
  if (!pool_.Submit([task] { (*task)(); })) {
    // Pool already shutting down (engine teardown race): answer inline so
    // the caller's future is still fulfilled instead of aborting.
    (*task)();
  }
  return future;
}

void QueryEngine::Submit(const Query& query,
                         std::function<void(EngineResponse)> done) {
  auto task = [this, query, done = std::move(done)] {
    // An escaped exception would std::terminate the pool worker — and
    // with it the whole serving process — while the caller's in-flight
    // accounting waited forever. Convert to an error response instead;
    // Run() has already retired the pending entry and failed coalesced
    // waiters by the time anything reaches us.
    EngineResponse response;
    try {
      response = Run(query);
    } catch (const std::exception& e) {
      response.error = e.what();
    } catch (...) {
      response.error = "solver failed with a non-standard exception";
    }
    done(std::move(response));
  };
  if (!pool_.Submit(task)) task();
}

bool QueryEngine::ApplyDelta(const GraphDelta& delta, std::string* error) {
  return ApplyDelta(delta, nullptr, error);
}

bool QueryEngine::ApplyDelta(const GraphDelta& delta,
                             const GraphFingerprint* expected_parent,
                             std::string* error) {
  // One delta at a time; queries keep flowing against the current state
  // while the successor is built.
  std::lock_guard<std::mutex> apply_lock(apply_mutex_);
  const std::shared_ptr<const ServingState> old_state = CurrentState();

  // The parent check must live inside the critical section: a caller that
  // verified the fingerprint before reaching this lock may have lost a
  // race to another delta, and applying against the winner's graph would
  // mutate a base this delta was never recorded for.
  if (expected_parent != nullptr &&
      !(*expected_parent == old_state->graph->fingerprint())) {
    *error =
        "delta was recorded against a different parent graph (wrong base "
        "snapshot, wrong chain order, or a concurrent update won the race)";
    return false;
  }

  const std::string problem = ValidateDelta(*old_state->graph, delta);
  if (!problem.empty()) {
    *error = "delta: " + problem;
    return false;
  }

  // Maintain core numbers edge by edge (deletes first — the delta's
  // documented order), then rebuild the CSR backend once; the maintained
  // numbers become the new index as they are.
  CoreMaintainer maintainer(*old_state->graph,
                            old_state->index->core_numbers());
  for (const Edge& e : delta.delete_edges) maintainer.DeleteEdge(e.u, e.v);
  for (const Edge& e : delta.insert_edges) maintainer.InsertEdge(e.u, e.v);

  // Condense the delta to the thresholds the cache's keep rule tests,
  // against the *post-delta* core numbers (sound — see result_cache.h:
  // any level where old and new membership could disagree lies inside the
  // crossed range and is evicted wholesale).
  DeltaImpact impact;
  const AffectedSummary affected = maintainer.Summary();
  impact.any_core_crossed = affected.any();
  impact.crossed_min = affected.min_crossed;
  impact.crossed_max = affected.max_crossed;
  const std::vector<VertexId>& core = maintainer.core_numbers();
  for (const Edge& e : delta.delete_edges) {
    impact.evict_k_le =
        std::max(impact.evict_k_le, std::min(core[e.u], core[e.v]));
  }
  for (const Edge& e : delta.insert_edges) {
    impact.evict_k_le =
        std::max(impact.evict_k_le, std::min(core[e.u], core[e.v]));
  }
  for (const WeightUpdate& w : delta.weight_updates) {
    impact.evict_k_le = std::max(impact.evict_k_le, core[w.vertex]);
    impact.total_weight_changed = true;
  }

  auto next = std::make_shared<ServingState>();
  next->owned_graph = ApplyValidatedDelta(*old_state->graph, delta);
  next->graph = &next->owned_graph;
  next->owned_index = CoreIndex::FromCoreNumbers(next->owned_graph,
                                                 maintainer.TakeCoreNumbers());
  next->index = next->owned_index.get();
  next->solve = base_solve_options_;
  next->solve.core_index = next->index;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = std::move(next);
    ++generation_;
    // In-flight answers describe the old graph: detach the coalescing map
    // (owners still fulfil their waiters, they just no longer seed the
    // new cache — the generation bump blocks that). Cached entries are
    // swept by the keep rule: an entry survives only when the delta
    // provably left its k-level's induced subgraph untouched.
    cache_.ClearPending();
    if (cache_partial_invalidation_) {
      cache_.InvalidateForDelta(impact);
    } else {
      cache_.Clear();
    }
    ++stats_.deltas_applied;
  }
  return true;
}

bool QueryEngine::ApplyDeltaSnapshotFile(const std::string& path,
                                         std::string* error,
                                         GraphDelta* applied) {
  GraphDelta delta;
  GraphFingerprint parent;
  if (!LoadDeltaSnapshot(path, &delta, &parent, error)) return false;
  // The recorded parent is enforced inside ApplyDelta's critical section,
  // so two callers racing chained deltas cannot both slip past a
  // check-then-apply window.
  if (!ApplyDelta(delta, &parent, error)) {
    *error = path + ": " + *error;
    return false;
  }
  if (applied != nullptr) *applied = std::move(delta);
  return true;
}

EngineStats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats out = stats_;
  const ResultCacheCounters& cache = cache_.counters();
  out.cache_evictions = cache.evictions;
  out.cache_negative_hits = cache.negative_hits;
  out.cache_expired = cache.expired;
  out.cache_partial_kept = cache.partial_kept;
  out.cache_partial_evicted = cache.partial_evicted;
  out.cache_charge = cache_.charge();
  return out;
}

}  // namespace ticl
