// Streaming network front end: newline-delimited JSON over TCP, driving
// QueryEngine::Submit with real backpressure.
//
// One epoll event loop owns every socket; solver work never runs on it —
// queries go to the engine's pool via the callback Submit and come back
// through a completion queue + eventfd wake-up. Three mechanisms bound
// the damage any client (or all of them together) can do:
//
//   * Admission control — at most `max_in_flight` queries are inside the
//     engine at once, and no single connection may hold more than
//     `max_in_flight_per_conn` of those slots (default: a quarter of the
//     global cap), so one chatty client cannot starve the rest. Excess
//     load is *rejected immediately* with a structured JSON error
//     ("kind": "rejected", counted in ServerStats::server_rejected /
//     server_rejected_per_conn) instead of queueing without bound or
//     stalling the loop.
//   * Write backpressure — a connection whose reply buffer exceeds
//     `max_write_buffer_bytes` stops being read until the peer drains
//     it; a slow reader throttles itself, not the server.
//   * Line cap — at most kMaxRequestLineBytes are buffered while looking
//     for a newline; an oversized line gets an error reply and is
//     discarded up to the next newline, after which the stream resumes.
//
// Graceful drain (RequestDrain — async-signal-safe, wired to SIGTERM by
// tools/ticl_served, also reachable via the "drain" admin command): the
// listener closes so late connections are refused, no further requests
// are read, every in-flight query completes and its reply is flushed,
// then Serve() returns. No accepted query's result is dropped or
// duplicated.
//
// Admin commands (flat JSON lines carrying an "admin" key) let an
// operator steer a running server: "apply_delta" loads a delta snapshot
// from disk, verifies its parent fingerprint and swaps it in live via
// QueryEngine::ApplyDelta — queries keep flowing, no restart; "stats"
// reports engine + server counters; "drain"/"ping" do what they say.
// Delta maintenance runs on the event-loop thread: accepting new work
// pauses for its duration (in-flight solves continue on the pool), which
// is the intended single-writer behavior.

#ifndef TICL_SERVE_SERVER_H_
#define TICL_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "serve/engine.h"
#include "serve/protocol.h"

namespace ticl {

struct ServerOptions {
  /// Address to bind; default loopback-only (serving the open internet
  /// is an explicit operator decision, e.g. --bind 0.0.0.0).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Accepted sockets beyond this are closed immediately.
  std::size_t max_connections = 1024;
  /// Admission control: queries inside the engine at once, across all
  /// connections. Excess queries are rejected with a JSON error.
  std::size_t max_in_flight = 256;
  /// Per-connection fairness cap: queries one connection may have inside
  /// the engine at once. 0 = auto (max_in_flight / 4, floored at 1), so
  /// one chatty client can never claim every global slot and starve the
  /// others. Excess queries from that connection are rejected with the
  /// same "rejected" error kind (a distinct message, counted in
  /// ServerStats::server_rejected_per_conn).
  std::size_t max_in_flight_per_conn = 0;
  /// Per-connection reply-buffer high-water mark; reading from the
  /// connection pauses above it and resumes once fully flushed.
  std::size_t max_write_buffer_bytes = 4u << 20;
  /// Admin commands ("apply_delta", "stats", "drain", "ping"). Disable
  /// when untrusted clients share the port.
  bool enable_admin = true;
  /// Graceful-drain grace period: a connection that still has not read
  /// its replies this many milliseconds after the drain began is
  /// force-closed, so one stalled peer cannot block shutdown forever.
  /// 0 waits indefinitely. In-flight solves are always waited out (they
  /// are compute-bound and finish); only the flush wait is bounded.
  unsigned drain_grace_ms = 10000;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  /// Closed at accept time: connection table full.
  std::uint64_t connections_refused = 0;
  std::uint64_t queries_submitted = 0;
  std::uint64_t responses_sent = 0;
  /// Completions whose connection had already gone away.
  std::uint64_t responses_dropped = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t invalid_queries = 0;
  /// Queries rejected by global admission control (max_in_flight).
  std::uint64_t server_rejected = 0;
  /// Queries rejected by the per-connection fairness cap
  /// (max_in_flight_per_conn) — the offender hit its own ceiling while
  /// global slots may still have been free.
  std::uint64_t server_rejected_per_conn = 0;
  std::uint64_t admin_commands = 0;
  /// Lines discarded for exceeding kMaxRequestLineBytes.
  std::uint64_t oversized_lines = 0;
  /// Connections force-closed at the drain deadline with replies still
  /// unflushed (the peer stopped reading).
  std::uint64_t drain_forced_closes = 0;
};

/// The one list of ServerStats names, in the order every stats surface
/// prints them (see kEngineStatsFields).
inline constexpr StatsField<ServerStats> kServerStatsFields[] = {
    {"connections_accepted", &ServerStats::connections_accepted},
    {"connections_refused", &ServerStats::connections_refused},
    {"queries_submitted", &ServerStats::queries_submitted},
    {"responses_sent", &ServerStats::responses_sent},
    {"responses_dropped", &ServerStats::responses_dropped},
    {"parse_errors", &ServerStats::parse_errors},
    {"invalid_queries", &ServerStats::invalid_queries},
    {"server_rejected", &ServerStats::server_rejected},
    {"server_rejected_per_conn", &ServerStats::server_rejected_per_conn},
    {"admin_commands", &ServerStats::admin_commands},
    {"oversized_lines", &ServerStats::oversized_lines},
    {"drain_forced_closes", &ServerStats::drain_forced_closes},
};
static_assert(sizeof(ServerStats) ==
                  std::size(kServerStatsFields) * sizeof(std::uint64_t),
              "every ServerStats counter needs a kServerStatsFields entry");

/// {"engine": {...}, "server": {...}} with every counter of both tables,
/// as the "stats" admin reply carries them: the drain line and the batch
/// summary print this.
std::string FormatStatsJson(const EngineStats& engine,
                            const ServerStats& server);

/// Batch front end (ticl_served --batch): answers every query line of
/// `in` on `out`, in input order, through the listener's parser, engine
/// path and reply formatting; opens no socket. Blank and '#' lines are
/// skipped, admin lines are rejected as parse errors, and every answer is
/// checked with ValidateResult. Failures and one summary line (throughput
/// plus FormatStatsJson) go to `log`. Returns the exit status: 0; 3 when
/// an answer failed validation or its solve threw (a library bug; the
/// other lines are still answered); else 4 when a line was malformed or
/// invalid.
int ServeBatch(QueryEngine* engine, std::FILE* in, std::FILE* out,
               std::FILE* log);

/// One server per engine. Not copyable. Lifecycle: Start() binds and
/// listens (port() is valid afterwards), Serve() runs the event loop on
/// the calling thread until a drain completes. stats() and
/// RequestDrain() are safe from any thread; RequestDrain is also safe
/// from a signal handler.
class Server {
 public:
  explicit Server(QueryEngine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Returns false with *error on failure (bad
  /// address, port in use, ...). Call once.
  bool Start(std::string* error);

  /// Bound port (after Start); resolves port 0 to the real ephemeral one.
  std::uint16_t port() const { return port_; }

  /// Event loop; blocks until RequestDrain() (or the "drain" admin
  /// command) and the subsequent drain complete.
  void Serve();

  /// Initiates graceful drain. Async-signal-safe: an atomic flag plus an
  /// eventfd write. Idempotent.
  void RequestDrain();

  ServerStats stats() const;

 private:
  struct Connection;

  /// The callback-facing half. Engine callbacks hold a shared_ptr to
  /// this (not to the Server), so a completion racing server teardown
  /// lands in a queue that is still alive and wakes an eventfd that is
  /// still open, and is simply never delivered.
  struct CompletionQueue {
    std::mutex mutex;
    std::deque<std::pair<std::uint64_t, std::string>> items;  // conn id, line
    int wake_fd = -1;
    ~CompletionQueue();
    void Push(std::uint64_t conn_id, std::string line);
    void Wake();
  };

  void AcceptNew();
  void HandleReadable(Connection* conn);
  void ProcessInput(Connection* conn);
  void ReportOversized(Connection* conn);
  void HandleWritable(Connection* conn);
  void HandleLine(Connection* conn, const std::string& line);
  void HandleAdmin(Connection* conn, const ParsedRequest& request);
  void SubmitQuery(Connection* conn, const ParsedRequest& request);
  void Reply(Connection* conn, std::string line);
  void DrainCompletions();
  void BeginDrain();
  void MaybeFinishDrain();
  void ForceCloseStragglers();
  void PauseListener();
  void ResumeListener();
  void CloseConnection(std::uint64_t conn_id);
  void PauseReading(Connection* conn);
  void ResumeReading(Connection* conn);
  void UpdateEpoll(Connection* conn);

  QueryEngine* const engine_;
  const ServerOptions options_;
  /// Resolved max_in_flight_per_conn (0-auto applied).
  const std::size_t per_conn_cap_;
  const std::shared_ptr<CompletionQueue> completions_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;  // event-loop thread only
  bool done_ = false;      // event-loop thread only
  /// Listener temporarily out of epoll because accept4 hit
  /// EMFILE/ENFILE; re-armed when a connection closes. Prevents a
  /// level-triggered busy-spin on a backlog nothing can accept.
  bool listener_paused_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::uint64_t next_conn_id_ = 2;  // 0 = wake fd, 1 = listen fd
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::size_t total_in_flight_ = 0;  // event-loop thread only

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace ticl

#endif  // TICL_SERVE_SERVER_H_
