// Per-layer timings: calls each layer's public functions in-process on
// the workload's own inputs and prints one JSON line of named metrics.
// The spans are taken here, around the calls, not inside the program.

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/core_decomposition.h"
#include "algo/core_maintenance.h"
#include "algo/pagerank.h"
#include "bridge.h"
#include "client.h"
#include "core/search.h"
#include "graph/edge_list_io.h"
#include "graph/graph_delta.h"
#include "serve/core_index.h"
#include "serve/engine.h"
#include "serve/mapped_snapshot.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util.h"

namespace e2e {

namespace {

// Median wall time of `fn` in ms: repeats until `reps` runs or ~budget_ms
// of work, whichever comes first (at least one run).
template <typename Fn>
double MedianMs(int reps, double budget_ms, Fn&& fn) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < reps &&
         (times.empty() || total < budget_ms)) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(MillisSince(start));
    total += times.back();
  }
  return Quantile(times, 0.5);
}

// Mean per-call time in µs of a cheap call, over batches; median batch.
template <typename Fn>
double CallUs(Fn&& fn) {
  int batch = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    if (MillisSince(start) > 2.0 || batch >= (1 << 20)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    per_call.push_back(MillisSince(start) * 1e3 / batch);
  }
  return Quantile(per_call, 0.5);
}

// Median of per-query values, each counted per_round times (the value
// the mix's median request sees).
double MixMedian(const std::vector<MenuQuery>& mix,
                 const std::vector<double>& values) {
  std::vector<double> expanded;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    expanded.insert(expanded.end(), mix[i].per_round, values[i]);
  }
  return Quantile(expanded, 0.5);
}

double MixMean(const std::vector<MenuQuery>& mix,
               const std::vector<double>& values) {
  double sum = 0.0;
  double count = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    sum += values[i] * mix[i].per_round;
    count += mix[i].per_round;
  }
  return sum / count;
}

bool Fail(const std::string& message) {
  std::fprintf(stderr, "trace: %s\n", message.c_str());
  return false;
}

bool TraceSetup(const std::string& dir, const ticl::Graph& g,
                JsonLine* out) {
  std::string error;
  const std::string edge_path = dir + "/graph.txt";
  const std::string base_path = dir + "/base.snap";
  bool ok = true;
  out->Add("graph.edge_list_parse_ms", MedianMs(3, 0.0, [&] {
             ticl::Graph parsed;
             ok &= ticl::LoadEdgeList(edge_path, &parsed, &error);
           }));
  out->Add("algo.pagerank_ms",
           MedianMs(3, 0.0, [&] { ticl::ComputePageRank(g); }));
  out->Add("algo.decompose_ms",
           MedianMs(5, 200.0, [&] { ticl::CoreDecomposition(g); }));
  std::unique_ptr<ticl::CoreIndex> index;
  out->Add("serve.core_index.build_ms", MedianMs(5, 200.0, [&] {
             index = std::make_unique<ticl::CoreIndex>(g);
           }));
  ticl::SaveSnapshotOptions save_options;
  save_options.core_index = index.get();
  const std::string scratch = dir + "/trace_copy.snap";
  out->Add("serve.snapshot.save_ms", MedianMs(3, 0.0, [&] {
             ok &= ticl::SaveSnapshot(scratch, g, save_options, &error);
           }));
  out->Add("serve.snapshot.load_ms", MedianMs(3, 0.0, [&] {
             ticl::Graph loaded;
             std::vector<unsigned char> payload;
             ok &= ticl::LoadSnapshotWithIndex(base_path, &loaded, &payload,
                                               &error);
           }));
  out->Add("serve.snapshot.mmap_open_ms", MedianMs(5, 200.0, [&] {
             ok &= ticl::MappedSnapshot::Open(base_path, &error) != nullptr;
           }));
  std::remove(scratch.c_str());
  return ok || Fail(error);
}

void TraceSolve(const WorkloadSpec& spec, const ticl::Graph& g,
                JsonLine* out) {
  const std::vector<MenuQuery>& mix = MixQueries(spec);
  const ticl::CoreIndex index(g);
  std::vector<double> with_index;
  std::vector<double> without_index;
  std::map<std::string, std::vector<double>> by_solver;
  ticl::SearchStats counters;
  for (const MenuQuery& q : mix) {
    const ticl::Query query = ToQuery(q);
    ticl::SolveOptions indexed;
    indexed.core_index = &index;
    ticl::SearchResult result;
    with_index.push_back(
        MedianMs(5, 100.0, [&] { result = ticl::Solve(g, query, indexed); }));
    without_index.push_back(
        MedianMs(5, 100.0, [&] { ticl::Solve(g, query); }));
    const std::string solver = ticl::SolverKindName(ticl::AutoSolverFor(query));
    by_solver[solver].push_back(with_index.back());
    std::fprintf(stderr, "trace: %-28s %-14s %9.3f ms (%9.3f ms no index)\n",
                 ticl::QueryToString(query).c_str(), solver.c_str(),
                 with_index.back(), without_index.back());
    counters.peel_operations += result.stats.peel_operations;
    counters.candidates_generated += result.stats.candidates_generated;
    counters.candidates_pruned += result.stats.candidates_pruned;
    counters.duplicates_skipped += result.stats.duplicates_skipped;
    counters.seeds_processed += result.stats.seeds_processed;
  }
  out->Add("core.solve_ms", Quantile(with_index, 0.5));
  out->Add("core.solve_noindex_ms", Quantile(without_index, 0.5));
  out->Add("core.solve_mix_ms", MixMean(mix, with_index));
  for (const char* solver :
       {"improved", "local-greedy", "min-peel", "max-components"}) {
    out->Add(std::string("core.") + solver + ".solve_ms",
             Quantile(by_solver[solver], 0.5));
  }
  out->AddInt("core.peels", counters.peel_operations);
  out->AddInt("core.candidates", counters.candidates_generated);
  out->AddInt("core.pruned", counters.candidates_pruned);
  out->AddInt("core.duplicates", counters.duplicates_skipped);
  out->AddInt("core.seeds", counters.seeds_processed);
}

// The engine as ticl_served opens it: mmap, persisted index, and the
// workload's cache setting (`cache` false = --cache 0).
std::unique_ptr<ticl::QueryEngine> OpenEngine(const std::string& dir,
                                              bool cache) {
  ticl::EngineOptions options;
  options.num_threads = 1;
  if (!cache) options.cache_member_budget = 0;
  std::string error;
  auto engine = ticl::QueryEngine::OpenSnapshot(
      dir + "/base.snap", ticl::SnapshotLoadMode::kMmap, options, &error);
  if (engine == nullptr) Fail(error);
  return engine;
}

// Protocol and engine costs per request of the mix. The hit cost is taken
// on a warm cached engine on every workload, also where the wire run
// disables the cache.
bool TraceServe(const WorkloadSpec& spec, const std::string& dir,
                JsonLine* out) {
  const std::vector<MenuQuery>& mix = MixQueries(spec);
  const std::unique_ptr<ticl::QueryEngine> engine = OpenEngine(dir, true);
  if (engine == nullptr) return false;
  std::string error;

  std::vector<double> parse_us;
  std::vector<double> format_us;
  std::vector<double> reply_kb;
  std::vector<double> hit_us;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const std::string line = RequestLine(mix[i], i + 1);
    const std::string body = line.substr(0, line.size() - 1);
    ticl::ParsedRequest request;
    parse_us.push_back(CallUs([&] {
      ticl::ParseRequestLine(body, 1, &request, &error);
    }));
    const ticl::EngineResponse first = engine->Run(request.query);
    std::size_t bytes = 0;
    format_us.push_back(CallUs([&] {
      bytes = ticl::FormatResultLine(request.id_json, request.query,
                                     *first.result, true)
                  .size();
    }));
    reply_kb.push_back(static_cast<double>(bytes) / 1024.0);
    hit_us.push_back(CallUs([&] { engine->Run(request.query); }));
  }
  out->Add("serve.protocol.parse_us", MixMedian(mix, parse_us));
  out->Add("serve.protocol.format_us", MixMedian(mix, format_us));
  out->Add("serve.protocol.reply_kb", MixMean(mix, reply_kb));
  out->Add("serve.engine.hit_us", MixMedian(mix, hit_us));
  return true;
}

bool TraceDeltas(const WorkloadSpec& spec, const std::string& dir,
                 const ticl::Graph& base, JsonLine* out) {
  const std::unique_ptr<ticl::QueryEngine> engine =
      OpenEngine(dir, spec.cache);
  if (engine == nullptr) return false;
  const std::vector<MenuQuery>& mix = MixQueries(spec);
  if (spec.cache) {
    for (const MenuQuery& q : mix) engine->Run(ToQuery(q));
  }
  const std::uint32_t length = 2 * spec.half_cycle;
  std::vector<double> load_ms, validate_ms, maintain_ms, merge_ms,
      rebucket_ms, redecompose_ms, apply_ms;
  std::string error;
  ticl::Graph g = base;
  std::vector<ticl::VertexId> core = ticl::CoreDecomposition(g).core;
  for (std::uint32_t d = 0; d < length; ++d) {
    ticl::GraphDelta delta;
    ticl::GraphFingerprint parent;
    bool loaded = false;
    load_ms.push_back(MedianMs(3, 0.0, [&] {
      loaded = ticl::LoadDeltaSnapshot(DeltaPath(dir, d), &delta, &parent,
                                       &error);
    }));
    if (!loaded) return Fail(error);
    std::string problem;
    validate_ms.push_back(
        MedianMs(3, 0.0, [&] { problem = ticl::ValidateDelta(g, delta); }));
    if (!problem.empty()) return Fail(problem);
    std::vector<ticl::VertexId> next_core;
    maintain_ms.push_back(MedianMs(3, 0.0, [&] {
      ticl::CoreMaintainer maintainer(g, core);
      for (const ticl::Edge& e : delta.delete_edges) {
        maintainer.DeleteEdge(e.u, e.v);
      }
      for (const ticl::Edge& e : delta.insert_edges) {
        maintainer.InsertEdge(e.u, e.v);
      }
      maintainer.Summary();
      next_core = maintainer.TakeCoreNumbers();
    }));
    ticl::Graph next;
    merge_ms.push_back(MedianMs(3, 0.0, [&] {
      next = ticl::ApplyValidatedDelta(g, delta);
    }));
    rebucket_ms.push_back(MedianMs(3, 0.0, [&] {
      ticl::CoreIndex::FromCoreNumbers(next, next_core);
    }));
    redecompose_ms.push_back(
        MedianMs(3, 0.0, [&] { ticl::CoreDecomposition(next); }));
    g = std::move(next);
    core = std::move(next_core);

    // The engine applies the same delta with its cache filled as in the
    // wire run: delta-churn re-queries after every apply, the others
    // apply back to back over the cache their timed phase left.
    const Clock::time_point start = Clock::now();
    if (!engine->ApplyDelta(delta, &parent, &error)) return Fail(error);
    apply_ms.push_back(MillisSince(start));
    if (!spec.step_queries.empty()) {
      for (const MenuQuery& q : mix) engine->Run(ToQuery(q));
    }
  }
  out->Add("serve.snapshot.load_delta_ms", Quantile(load_ms, 0.5));
  out->Add("graph.delta_validate_ms", Quantile(validate_ms, 0.5));
  out->Add("algo.maintain_ms", Quantile(maintain_ms, 0.5));
  out->Add("graph.delta_merge_ms", Quantile(merge_ms, 0.5));
  out->Add("serve.core_index.rebucket_ms", Quantile(rebucket_ms, 0.5));
  out->Add("algo.rebuild_decompose_ms", Quantile(redecompose_ms, 0.5));
  out->Add("serve.engine.apply_ms", Quantile(apply_ms, 0.5));
  return true;
}

}  // namespace

int RunTrace(const WorkloadSpec& spec, const std::string& dir) {
  ticl::Graph g;
  std::string error;
  if (!ticl::LoadSnapshot(dir + "/base.snap", &g, &error)) {
    std::fprintf(stderr, "trace: %s\n", error.c_str());
    return 2;
  }
  JsonLine out;
  if (!TraceSetup(dir, g, &out)) return 2;
  TraceSolve(spec, g, &out);
  if (!TraceServe(spec, dir, &out)) return 2;
  if (!TraceDeltas(spec, dir, g, &out)) return 2;
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace e2e
