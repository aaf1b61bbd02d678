// ticl_served — streaming network front end over a saved snapshot.
//
// Loads a snapshot once, builds the QueryEngine (core index + LRU result
// cache + thread pool), then listens on a TCP port and answers
// newline-delimited JSON requests: the exact same wire protocol as
// tools/ticl_serve's batch pipe (both are formatted and parsed by
// src/serve/protocol.{h,cc}, so the two front ends cannot drift). See
// src/serve/server.h for the event-loop, backpressure and admission
// control mechanics.
//
//   # one shell
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap \
//       --snapshot-index
//   ticl_served --snapshot dblp.snap --mmap --port 7421 --threads 8
//
//   # another shell (any newline-JSON client works; nc is enough)
//   printf '%s\n' '{"id": 1, "k": 4, "r": 5, "f": "sum"}' \
//     | nc -N 127.0.0.1 7421
//
// Admin commands over the same connection (disable with --no-admin):
//   {"id": "a1", "admin": "apply_delta", "path": "dblp.d1.snap"}
//   {"id": "a2", "admin": "stats"}
//   {"id": "a3", "admin": "drain"}     # graceful shutdown, like SIGTERM
//   {"id": "a4", "admin": "ping"}
//
// SIGTERM/SIGINT start a graceful drain: the listener closes, in-flight
// queries finish, every reply is flushed, then the process exits 0.
//
// Exit status: 0 on clean drain, 1 on usage errors, 2 on IO/bind errors.

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
#include "serve/snapshot.h"
#include "util/timing.h"

#include "cli_parse.h"

namespace {

using ticl::tools::ParseUnsigned;

struct CliOptions {
  std::string snapshot_path;
  std::vector<std::string> delta_paths;
  bool mmap = false;
  std::string bind_address = "127.0.0.1";
  unsigned port = 7421;
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
      "usage: ticl_served --snapshot PATH [options]\n"
      "\n"
      "  --snapshot PATH    snapshot written by ticl_query --save-snapshot\n"
      "  --delta PATH       delta snapshot applied on top at start-up; may\n"
      "                     repeat, in chain order (later deltas can also\n"
      "                     be applied live via the apply_delta admin\n"
      "                     command)\n"
      "  --mmap             serve the snapshot zero-copy via mmap\n"
      "  --bind ADDR        numeric IPv4 address to bind "
      "(default 127.0.0.1)\n"
      "  --port N           TCP port; 0 picks an ephemeral port "
      "(default 7421)\n"
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
      "line out — identical to ticl_serve's batch pipe. See README.\n");
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
    } else if (arg == "--bind") {
      if (!take(&options->bind_address)) return false;
    } else if (arg == "--port") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, 65535, &number)) {
        *error = "invalid --port: " + value;
        return false;
      }
      options->port = static_cast<unsigned>(number);
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
    } else if (arg == "--max-in-flight") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, ~0ull, &number) || number == 0) {
        *error = "--max-in-flight must be a positive integer";
        return false;
      }
      options->max_in_flight = number;
    } else if (arg == "--max-in-flight-per-conn") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, ~0ull, &number)) {
        *error = "invalid --max-in-flight-per-conn: " + value;
        return false;
      }
      options->max_in_flight_per_conn = number;
    } else if (arg == "--max-connections") {
      if (!take(&value)) return false;
      if (!ParseUnsigned(value, ~0ull, &number) || number == 0) {
        *error = "--max-connections must be a positive integer";
        return false;
      }
      options->max_connections = number;
    } else if (arg == "--no-admin") {
      options->admin = false;
    } else {
      *error = "unknown argument: " + arg;
      return false;
    }
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
  for (const std::string& delta_path : options.delta_paths) {
    if (!engine->ApplyDeltaSnapshotFile(delta_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }
  const double start_seconds = start_timer.ElapsedSeconds();

  ticl::ServerOptions server_options;
  server_options.bind_address = options.bind_address;
  server_options.port = static_cast<std::uint16_t>(options.port);
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
               "opened %s in %.3fs (n=%u m=%llu, %s, core index (k_max=%u) "
               "%s), %u worker threads\n",
               options.snapshot_path.c_str(), start_seconds,
               engine->graph().num_vertices(),
               static_cast<unsigned long long>(engine->graph().num_edges()),
               engine->snapshot_mapped() ? "mmap zero-copy" : "copy-load",
               engine->core_index().degeneracy(),
               engine->index_from_snapshot() ? "from snapshot" : "rebuilt",
               engine->num_threads());
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

  const ticl::ServerStats server_stats = server.stats();
  const ticl::EngineStats engine_stats = engine->stats();
  std::fprintf(
      stderr,
      "drained: %llu connections, %llu queries answered (%llu rejected, "
      "%llu per-conn rejected, %llu invalid, %llu parse errors, %llu "
      "dropped), cache %llu hits (%llu negative) / %llu misses / %llu "
      "coalesced / %llu uncacheable / %llu expired, %llu deltas applied "
      "(%llu entries kept / %llu evicted by partial invalidation)\n",
      static_cast<unsigned long long>(server_stats.connections_accepted),
      static_cast<unsigned long long>(server_stats.responses_sent),
      static_cast<unsigned long long>(server_stats.server_rejected),
      static_cast<unsigned long long>(server_stats.server_rejected_per_conn),
      static_cast<unsigned long long>(server_stats.invalid_queries),
      static_cast<unsigned long long>(server_stats.parse_errors),
      static_cast<unsigned long long>(server_stats.responses_dropped),
      static_cast<unsigned long long>(engine_stats.cache_hits),
      static_cast<unsigned long long>(engine_stats.cache_negative_hits),
      static_cast<unsigned long long>(engine_stats.cache_misses),
      static_cast<unsigned long long>(engine_stats.cache_coalesced),
      static_cast<unsigned long long>(engine_stats.cache_uncacheable),
      static_cast<unsigned long long>(engine_stats.cache_expired),
      static_cast<unsigned long long>(engine_stats.deltas_applied),
      static_cast<unsigned long long>(engine_stats.cache_partial_kept),
      static_cast<unsigned long long>(engine_stats.cache_partial_evicted));
  return 0;
}
