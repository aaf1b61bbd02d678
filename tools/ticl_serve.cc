// ticl_serve — batch query serving over a saved snapshot.
//
// Loads a snapshot once, builds the QueryEngine (core index + LRU result
// cache + thread pool), then answers a JSONL stream of queries: one JSON
// object per input line, one JSON result object per output line, in input
// order. A throughput summary goes to stderr so stdout stays pure JSONL.
//
// Query lines (unknown fields ignored; all fields optional except k/r
// defaults match ticl_query):
//   {"id": "q1", "k": 4, "r": 5, "f": "sum"}
//   {"id": 2, "k": 4, "r": 3, "s": 20, "f": "avg", "non_overlapping": true}
//   {"k": 2, "r": 1, "f": "sum-surplus", "alpha": 0.5}
//
// Result lines:
//   {"id": "q1", "query": "TIC k=4 r=5 f=sum", "cached": false,
//    "solve_seconds": 0.012300,
//    "communities": [{"influence": 42, "members": [1, 2, 3]}]}
// ("solve_seconds" is 0 when the cache or a coalesced solve answered.)
// or, for a malformed/invalid line:
//   {"id": "q1", "error": "...", "kind": "parse"}
//
// Examples:
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap \
//       --snapshot-index
//   ticl_serve --snapshot dblp.snap --mmap --queries batch.jsonl --threads 8
//   cat batch.jsonl | ticl_serve --snapshot dblp.snap
//
// With --mmap the snapshot (format v2) is served zero-copy straight from
// the mapping, and an embedded core index skips the start-up
// decomposition entirely — cold start does no work proportional to the
// graph beyond one validation pass.
//
// Exit status: 0 on success, 1 on usage errors, 2 on IO errors,
// 3 if any result fails validation (library bug — please report),
// 4 if any query line was malformed or invalid (remaining lines are
// still answered).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/search.h"
#include "core/verification.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/timing.h"

#include "cli_parse.h"

namespace {

using ticl::tools::ParseUnsigned;

struct CliOptions {
  std::string snapshot_path;
  std::vector<std::string> delta_paths;  // applied via engine ApplyDelta
  bool mmap = false;
  std::string queries_path = "-";  // "-" = stdin
  unsigned threads = 0;            // 0 = hardware concurrency
  std::size_t cache_member_budget = 1u << 20;
  std::uint64_t cache_ttl_ms = 0;
  bool cache_partial = true;
  std::string solver = "auto";
  double epsilon = 0.1;
  unsigned repeat = 1;
  bool validate = true;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: ticl_serve --snapshot PATH [options]\n"
      "\n"
      "  --snapshot PATH   snapshot written by ticl_query --save-snapshot\n"
      "  --delta PATH      delta snapshot (ticl_query --apply-delta\n"
      "                    --save-snapshot) applied on top; may repeat, in\n"
      "                    chain order. The core index is maintained\n"
      "                    incrementally, not rebuilt\n"
      "  --mmap            serve the snapshot zero-copy via mmap (needs a\n"
      "                    v2 file; uses its embedded core index if any)\n"
      "  --queries PATH    JSONL query file, or '-' for stdin (default -)\n"
      "  --threads N       worker threads (default: hardware concurrency)\n"
      "  --cache N         LRU result-cache budget in cached community\n"
      "                    members (size-aware), 0 disables "
      "(default 1048576)\n"
      "  --cache-ttl-ms N  per-entry result-cache TTL in milliseconds;\n"
      "                    0 = cached answers never expire (default 0)\n"
      "  --no-partial-invalidation\n"
      "                    deltas clear the whole result cache instead of\n"
      "                    only the affected k-levels (kill-switch)\n"
      "  --solver NAME     auto|naive|improved|approx|exact|local-greedy|\n"
      "                    local-random|min-peel|max-components "
      "(default auto)\n"
      "  --epsilon X       approximation ratio for --solver approx\n"
      "  --repeat N        run the batch N times (cache warm-up demo)\n"
      "  --no-validate     skip per-result ValidateResult\n"
      "\n"
      "Query lines: {\"id\": ..., \"k\": 4, \"r\": 5, \"s\": 0,\n"
      "              \"f\": \"sum\", \"alpha\": 1.0, \"beta\": 1.0,\n"
      "              \"non_overlapping\": false}\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = "missing value for " + arg;
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string value;
    unsigned long long number = 0;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (arg == "--snapshot") {
      if (!take(&options->snapshot_path)) return false;
    } else if (arg == "--delta") {
      if (!take(&value)) return false;
      options->delta_paths.push_back(value);
    } else if (arg == "--mmap") {
      options->mmap = true;
    } else if (arg == "--queries") {
      if (!take(&options->queries_path)) return false;
    } else if (arg == "--threads") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, 0xFFFFFFFFull, &number)) {
        *error = "invalid --threads: " + value;
        return false;
      }
      options->threads = static_cast<unsigned>(number);
    } else if (arg == "--cache") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, ~0ull, &number)) {
        *error = "invalid --cache: " + value;
        return false;
      }
      options->cache_member_budget = number;
    } else if (arg == "--cache-ttl-ms") {
      if (!take(&value)) return false;
      // A typo'd TTL silently parsing as 0 would disable the staleness
      // bound the operator asked for.
      if (!ParseUnsigned(value, ~0ull, &number)) {
        *error = "invalid --cache-ttl-ms: " + value;
        return false;
      }
      options->cache_ttl_ms = number;
    } else if (arg == "--no-partial-invalidation") {
      options->cache_partial = false;
    } else if (arg == "--solver") {
      if (!take(&options->solver)) return false;
    } else if (arg == "--epsilon") {
      if (!take(&value)) return false;
      if (!ticl::tools::ParseDouble(value, &options->epsilon)) {
        *error = "invalid --epsilon: " + value;
        return false;
      }
    } else if (arg == "--repeat") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, 0xFFFFFFFFull, &number) || number == 0) {
        *error = "--repeat must be a positive integer";
        return false;
      }
      options->repeat = static_cast<unsigned>(number);
    } else if (arg == "--no-validate") {
      options->validate = false;
    } else {
      *error = "unknown argument: " + arg;
      return false;
    }
  }
  return true;
}

// JSON parsing and formatting live in src/serve/protocol.{h,cc}, shared
// byte-for-byte with the network front end (tools/ticl_served) — the
// batch and streaming paths speak the same language by construction.

struct PendingQuery {
  std::string id_json;
  ticl::Query query;
  std::future<ticl::EngineResponse> future;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "error: %s\n\n", error.c_str());
    PrintUsage();
    return 1;
  }
  if (options.help || argc == 1) {
    PrintUsage();
    return 0;
  }
  if (options.snapshot_path.empty()) {
    std::fprintf(stderr, "error: --snapshot is required\n\n");
    PrintUsage();
    return 1;
  }

  ticl::EngineOptions engine_options;
  engine_options.num_threads = options.threads;
  engine_options.cache_member_budget = options.cache_member_budget;
  engine_options.cache_ttl_ms = options.cache_ttl_ms;
  engine_options.cache_partial_invalidation = options.cache_partial;
  engine_options.solve.epsilon = options.epsilon;
  if (!ticl::ParseSolverKind(options.solver, &engine_options.solve.solver)) {
    std::fprintf(stderr, "error: unknown solver: %s\n", options.solver.c_str());
    return 1;
  }
  const std::string options_problem =
      ticl::ValidateSolveOptions(engine_options.solve);
  if (!options_problem.empty()) {
    std::fprintf(stderr, "error: %s\n", options_problem.c_str());
    return 1;
  }

  ticl::WallTimer start_timer;
  const auto engine = ticl::QueryEngine::OpenSnapshot(
      options.snapshot_path,
      options.mmap ? ticl::SnapshotLoadMode::kMmap
                   : ticl::SnapshotLoadMode::kCopy,
      engine_options, &error);
  if (engine == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // Delta chain: each file names its parent by fingerprint, so a
  // mis-ordered chain fails with a chain error before any mutation;
  // ApplyDelta maintains the core index incrementally instead of
  // re-running the decomposition.
  for (const std::string& delta_path : options.delta_paths) {
    if (!engine->ApplyDeltaSnapshotFile(delta_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }
  const double start_seconds = start_timer.ElapsedSeconds();
  std::fprintf(stderr,
               "opened %s in %.3fs (n=%u m=%llu, %s, core index "
               "(k_max=%u) %s), %u worker threads\n",
               options.snapshot_path.c_str(), start_seconds,
               engine->graph().num_vertices(),
               static_cast<unsigned long long>(engine->graph().num_edges()),
               engine->snapshot_mapped() ? "mmap zero-copy" : "copy-load",
               engine->core_index().degeneracy(),
               engine->index_from_snapshot() ? "from snapshot" : "rebuilt",
               engine->num_threads());

  std::FILE* in = stdin;
  if (options.queries_path != "-") {
    in = std::fopen(options.queries_path.c_str(), "r");
    if (in == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   options.queries_path.c_str());
      return 2;
    }
  }

  // Read the whole batch up front (it is line-oriented and tiny relative
  // to the graph) so submission saturates the pool immediately.
  std::vector<std::string> lines;
  {
    std::string line;
    int ch;
    while ((ch = std::fgetc(in)) != EOF) {
      if (ch == '\n') {
        lines.push_back(std::move(line));
        line.clear();
      } else {
        line.push_back(static_cast<char>(ch));
      }
    }
    if (!line.empty()) lines.push_back(std::move(line));
  }
  if (in != stdin) std::fclose(in);

  bool had_bad_input = false;
  bool had_validation_failure = false;
  std::size_t answered = 0;
  ticl::WallTimer batch_timer;
  for (unsigned round = 0; round < options.repeat; ++round) {
    std::vector<PendingQuery> pending;
    pending.reserve(lines.size());
    std::size_t line_number = 0;
    for (const std::string& line : lines) {
      ++line_number;
      // Skip blanks and comment lines.
      std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;

      PendingQuery entry;
      if (!ticl::ParseQueryLine(line, line_number, &entry.query,
                                &entry.id_json, &error)) {
        std::fputs(ticl::FormatErrorLine(entry.id_json, error,
                                         ticl::kErrorKindParse)
                       .c_str(),
                   stdout);
        had_bad_input = true;
        continue;
      }
      const std::string problem = engine->Validate(entry.query);
      if (!problem.empty()) {
        std::fputs(ticl::FormatErrorLine(entry.id_json,
                                         "invalid query: " + problem,
                                         ticl::kErrorKindInvalid)
                       .c_str(),
                   stdout);
        had_bad_input = true;
        continue;
      }
      entry.future = engine->Submit(entry.query);
      pending.push_back(std::move(entry));
    }

    for (PendingQuery& entry : pending) {
      const ticl::EngineResponse response = entry.future.get();
      std::fputs(ticl::FormatResultLine(entry.id_json, entry.query,
                                        *response.communities_json,
                                        response.solve_seconds,
                                        response.cache_hit)
                     .c_str(),
                 stdout);
      ++answered;
      if (options.validate) {
        const std::string problem = ticl::ValidateResult(
            engine->graph(), entry.query, *response.result);
        if (!problem.empty()) {
          std::fprintf(stderr, "validation FAILED (id %s): %s\n",
                       entry.id_json.c_str(), problem.c_str());
          had_validation_failure = true;
        }
      }
    }
  }
  const double batch_seconds = batch_timer.ElapsedSeconds();

  const ticl::EngineStats stats = engine->stats();
  std::fprintf(stderr,
               "%zu queries in %.3fs (%.1f queries/s), cache %llu hits "
               "(%llu negative) / %llu misses / %llu coalesced / %llu "
               "uncacheable / %llu expired, %llu deltas applied (%llu "
               "entries kept / %llu evicted by partial invalidation)\n",
               answered, batch_seconds,
               batch_seconds > 0.0 ? answered / batch_seconds : 0.0,
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_negative_hits),
               static_cast<unsigned long long>(stats.cache_misses),
               static_cast<unsigned long long>(stats.cache_coalesced),
               static_cast<unsigned long long>(stats.cache_uncacheable),
               static_cast<unsigned long long>(stats.cache_expired),
               static_cast<unsigned long long>(stats.deltas_applied),
               static_cast<unsigned long long>(stats.cache_partial_kept),
               static_cast<unsigned long long>(stats.cache_partial_evicted));

  if (had_validation_failure) return 3;
  if (had_bad_input) return 4;
  return 0;
}
