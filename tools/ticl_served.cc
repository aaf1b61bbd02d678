// ticl_served — the serving front end over a saved snapshot.
//
// Loads a snapshot once, builds the QueryEngine (core index + LRU result
// cache + thread pool), then answers newline-delimited JSON requests over
// TCP or, with --batch, from a file or stdin (replies on stdout in input
// order). Both modes run the same parser, engine path and formatter
// (src/serve/protocol.{h,cc}, src/serve/server.{h,cc}), so they cannot
// drift. See src/serve/server.h for the event-loop, backpressure and
// admission control mechanics.
//
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap
//       --snapshot-index
//   cat batch.jsonl | ticl_served --snapshot dblp.snap --mmap --batch -
//   ticl_served --snapshot dblp.snap --mmap --port 7421 --threads 8
//   printf '%s\n' '{"id": 1, "k": 4, "r": 5, "f": "sum"}'
//     | nc -N 127.0.0.1 7421    (any newline-JSON client works)
//
// Admin commands over the same connection (disable with --no-admin; batch
// mode rejects them):
//   {"id": "a1", "admin": "apply_delta", "path": "dblp.d1.snap"}
//   {"id": "a2", "admin": "stats"}
//   {"id": "a3", "admin": "drain"}     # graceful shutdown, like SIGTERM
//   {"id": "a4", "admin": "ping"}
//
// SIGTERM/SIGINT start a graceful drain: the listener closes, in-flight
// queries finish, every reply is flushed, then the process exits 0.
//
// Exit status: 0 on success (a clean drain), 1 on usage errors, 2 on
// IO/bind errors; in batch mode also 3 if an answer failed validation or
// its solve threw (library bug — please report) and 4 if a query line was
// malformed or invalid (the remaining lines are still answered).

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/search.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "util/timing.h"

#include "cli_parse.h"

namespace {

struct CliOptions {
  std::string snapshot_path;
  std::vector<std::string> delta_paths;
  bool mmap = false;
  std::string batch_path;  // empty = listen; "-" = stdin
  /// The first listener-only flag given, for the --batch usage error.
  std::string listener_flag;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 7421;
  unsigned threads = 0;
  std::size_t cache_member_budget = 1u << 20;
  std::uint64_t cache_ttl_ms = 0;
  bool cache_partial = true;
  std::string solver = "auto";
  double epsilon = 0.1;
  std::size_t max_in_flight = 256;
  std::size_t max_in_flight_per_conn = 0;
  std::size_t max_connections = 1024;
  bool admin = true;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: ticl_served --snapshot PATH [--batch PATH|-] [options]\n"
      "\n"
      "  --snapshot PATH    snapshot written by ticl_query --save-snapshot\n"
      "  --delta PATH       delta snapshot applied on top at start-up; may\n"
      "                     repeat, in chain order (later deltas can also\n"
      "                     be applied live via the apply_delta admin\n"
      "                     command)\n"
      "  --mmap             serve the snapshot zero-copy via mmap\n"
      "  --batch PATH       answer the JSONL query file PATH ('-' = stdin)\n"
      "                     on stdout, in input order, then exit; opens no\n"
      "                     socket, so the listener flags below are usage\n"
      "                     errors with it\n"
      "  --threads N        worker threads (default: hardware "
      "concurrency)\n"
      "  --cache N          LRU result-cache budget in cached community\n"
      "                     members, 0 disables (default 1048576)\n"
      "  --cache-ttl-ms N   per-entry result-cache TTL in milliseconds;\n"
      "                     0 = cached answers never expire (default 0)\n"
      "  --no-partial-invalidation\n"
      "                     deltas clear the whole result cache instead\n"
      "                     of only the affected k-levels (kill-switch)\n"
      "  --solver NAME      auto|naive|improved|approx|exact|local-greedy|\n"
      "                     local-random|min-peel|max-components "
      "(default auto)\n"
      "  --epsilon X        approximation ratio for --solver approx\n"
      "\n"
      "Listener flags:\n"
      "  --bind ADDR        numeric IPv4 address to bind "
      "(default 127.0.0.1)\n"
      "  --port N           TCP port; 0 picks an ephemeral port "
      "(default 7421)\n"
      "  --max-in-flight N  admission control: queries inside the engine\n"
      "                     at once; excess load is rejected with a JSON\n"
      "                     error (default 256)\n"
      "  --max-in-flight-per-conn N\n"
      "                     fairness cap per connection; 0 = auto\n"
      "                     (max-in-flight / 4, min 1) so one chatty\n"
      "                     client cannot claim every slot (default 0)\n"
      "  --max-connections N  accepted sockets beyond this are closed\n"
      "                     (default 1024)\n"
      "  --no-admin         disable apply_delta/stats/drain/ping admin\n"
      "                     commands\n"
      "\n"
      "Wire protocol: one JSON request per line in, one JSON reply per\n"
      "line out, the same in both modes. See README.\n");
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
    // Strict: a typo'd value (say a TTL silently parsing as 0, which
    // would disable the staleness bound asked for) is a usage error.
    const auto take_number = [&](auto* out, bool positive = false) {
      std::string value;
      return take(&value) && ticl::tools::ParseUnsignedFlag(
                                 arg, value, out, error, positive);
    };
    if (arg == "--bind" || arg == "--port" || arg == "--max-in-flight" ||
        arg == "--max-in-flight-per-conn" || arg == "--max-connections" ||
        arg == "--no-admin") {
      if (options->listener_flag.empty()) options->listener_flag = arg;
    }
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (arg == "--snapshot") {
      if (!take(&options->snapshot_path)) return false;
    } else if (arg == "--delta") {
      if (!take(&value)) return false;
      options->delta_paths.push_back(value);
    } else if (arg == "--mmap") {
      options->mmap = true;
    } else if (arg == "--batch") {
      if (!take(&options->batch_path)) return false;
      if (options->batch_path.empty()) {
        *error = "--batch needs a path or '-'";
        return false;
      }
    } else if (arg == "--bind") {
      if (!take(&options->bind_address)) return false;
    } else if (arg == "--port") {
      if (!take_number(&options->port)) return false;
    } else if (arg == "--threads") {
      if (!take_number(&options->threads)) return false;
    } else if (arg == "--cache") {
      if (!take_number(&options->cache_member_budget)) return false;
    } else if (arg == "--cache-ttl-ms") {
      if (!take_number(&options->cache_ttl_ms)) return false;
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
    } else if (arg == "--max-in-flight") {
      if (!take_number(&options->max_in_flight, true)) return false;
    } else if (arg == "--max-in-flight-per-conn") {
      if (!take_number(&options->max_in_flight_per_conn)) return false;
    } else if (arg == "--max-connections") {
      if (!take_number(&options->max_connections, true)) return false;
    } else if (arg == "--no-admin") {
      options->admin = false;
    } else {
      *error = "unknown argument: " + arg;
      return false;
    }
  }
  if (!options->batch_path.empty() && !options->listener_flag.empty()) {
    *error = options->listener_flag + " is a listener flag; --batch opens "
             "no socket";
    return false;
  }
  return true;
}

// Signal handlers may only touch this pointer and call RequestDrain
// (atomic flag + eventfd write, both async-signal-safe). main() nulls
// the pointer the moment Serve() returns, before the Server object is
// destroyed, so a late second SIGTERM during engine teardown cannot
// touch a dead object.
std::atomic<ticl::Server*> g_server{nullptr};

void HandleSignal(int) {
  ticl::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

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
    std::fprintf(stderr, "error: unknown solver: %s\n",
                 options.solver.c_str());
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
  // mis-ordered chain fails with a chain error before any mutation.
  for (const std::string& delta_path : options.delta_paths) {
    if (!engine->ApplyDeltaSnapshotFile(delta_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }
  const double start_seconds = start_timer.ElapsedSeconds();
  std::fprintf(stderr,
               "opened %s in %.3fs (n=%u m=%llu, %s, core index (k_max=%u) "
               "%s), %u worker threads\n",
               options.snapshot_path.c_str(), start_seconds,
               engine->graph().num_vertices(),
               static_cast<unsigned long long>(engine->graph().num_edges()),
               engine->snapshot_mapped() ? "mmap zero-copy" : "copy-load",
               engine->core_index().degeneracy(),
               engine->index_from_snapshot() ? "from snapshot" : "rebuilt",
               engine->num_threads());

  if (!options.batch_path.empty()) {
    std::FILE* in = options.batch_path == "-"
                        ? stdin
                        : std::fopen(options.batch_path.c_str(), "r");
    if (in == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   options.batch_path.c_str());
      return 2;
    }
    const int status = ticl::ServeBatch(engine.get(), in, stdout, stderr);
    if (in != stdin) std::fclose(in);
    return status;
  }

  ticl::ServerOptions server_options;
  server_options.bind_address = options.bind_address;
  server_options.port = options.port;
  server_options.max_in_flight = options.max_in_flight;
  server_options.max_in_flight_per_conn = options.max_in_flight_per_conn;
  server_options.max_connections = options.max_connections;
  server_options.enable_admin = options.admin;
  ticl::Server server(engine.get(), server_options);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  g_server.store(&server, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // A peer vanishing mid-write must not kill the process (send() already
  // passes MSG_NOSIGNAL; this covers any stray stdio-to-pipe case).
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "listening on %s:%u (max %zu connections, %zu in-flight "
               "queries, admin %s) — SIGTERM drains gracefully\n",
               options.bind_address.c_str(), server.port(),
               options.max_connections, options.max_in_flight,
               options.admin ? "enabled" : "disabled");

  server.Serve();
  // Detach the handlers from the object before it dies; a straggler
  // signal from here on is a no-op instead of a use-after-lifetime.
  g_server.store(nullptr, std::memory_order_release);

  std::fprintf(stderr, "drained: %s\n",
               ticl::FormatStatsJson(engine->stats(), server.stats()).c_str());
  return 0;
}
