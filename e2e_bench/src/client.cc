#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "util.h"

namespace e2e {

namespace {

enum Kind : int { kQuery = 0, kApply = 1 };
enum Phase : int { kWarm = 0, kTimed = 1, kApplyPhase = 2 };

struct Record {
  int kind = kQuery;
  int phase = kWarm;
  std::uint32_t item = 0;   // menu / step-query index, or chain index
  std::uint32_t state = 0;  // distinct graph state the reply describes
  double ms = 0.0;
  std::uint64_t hash = 0;
  bool cached = false;
  bool error = false;
};

// One blocking loopback connection that reads newline-framed replies.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Open(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Reads through the next newline; *line excludes it.
  bool ReadLine(std::string* line) {
    for (;;) {
      const void* nl = std::memchr(buffer_.data() + scanned_, '\n',
                                   filled_ - scanned_);
      if (nl != nullptr) {
        const auto end = static_cast<std::size_t>(
            static_cast<const char*>(nl) - buffer_.data());
        line->assign(buffer_.data(), end);
        std::memmove(buffer_.data(), buffer_.data() + end + 1,
                     filled_ - end - 1);
        filled_ -= end + 1;
        scanned_ = 0;
        return true;
      }
      scanned_ = filled_;
      if (buffer_.size() - filled_ < kChunk) buffer_.resize(filled_ + kChunk);
      const ssize_t n = ::recv(fd_, buffer_.data() + filled_, kChunk, 0);
      if (n <= 0) return false;
      filled_ += static_cast<std::size_t>(n);
    }
  }

 private:
  static constexpr std::size_t kChunk = 256 * 1024;
  int fd_ = -1;
  std::vector<char> buffer_ = std::vector<char>(kChunk);
  std::size_t filled_ = 0;
  std::size_t scanned_ = 0;
};

// Everything one client thread records.
struct Log {
  std::vector<Record> records;
  // (state, item) -> first reply line of that query.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> first;
  std::uint64_t next_id = 1;
  bool io_failed = false;
};

bool IsError(const std::string& reply) {
  return reply.find("\"error\": ") != std::string::npos &&
         reply.find("\"communities\": ") == std::string::npos;
}

void Query(Connection* conn, const MenuQuery& q, std::uint32_t item,
           std::uint32_t state, int phase, Log* log) {
  const std::string line = RequestLine(q, log->next_id++);
  std::string reply;
  const Clock::time_point start = Clock::now();
  if (!conn->Send(line) || !conn->ReadLine(&reply)) {
    log->io_failed = true;
    return;
  }
  Record rec;
  rec.ms = MillisSince(start);
  rec.kind = kQuery;
  rec.phase = phase;
  rec.item = item;
  rec.state = state;
  rec.error = IsError(reply);
  rec.cached = reply.find("\"cached\": true") != std::string::npos;
  const std::size_t at = reply.find("\"communities\": ");
  if (at != std::string::npos) {
    rec.hash = HashBytes(reply.data() + at, reply.size() - at);
  }
  log->records.push_back(rec);
  log->first.try_emplace(std::make_pair(state, item), std::move(reply));
}

void Apply(Connection* conn, const std::string& dir, std::uint32_t index,
           std::uint32_t new_state, int phase, Log* log) {
  const std::string line = "{\"id\": " + std::to_string(log->next_id++) +
                           ", \"admin\": \"apply_delta\", \"path\": \"" +
                           DeltaPath(dir, index) + "\"}\n";
  std::string reply;
  const Clock::time_point start = Clock::now();
  if (!conn->Send(line) || !conn->ReadLine(&reply)) {
    log->io_failed = true;
    return;
  }
  Record rec;
  rec.ms = MillisSince(start);
  rec.kind = kApply;
  rec.phase = phase;
  rec.item = index;
  rec.state = new_state;
  rec.error = reply.find("\"ok\": true") == std::string::npos;
  log->records.push_back(rec);
}

bool Stats(Connection* conn, const std::string& label, std::string* out) {
  std::string reply;
  if (!conn->Send("{\"id\": \"" + label + "\", \"admin\": \"stats\"}\n") ||
      !conn->ReadLine(&reply)) {
    return false;
  }
  *out += label + "\t" + reply + "\n";
  return true;
}

// Whole rounds of the menu mix on one connection until `seconds` pass.
void TimedMix(const WorkloadSpec& spec, const LoadOptions& options,
              unsigned conn_index, Connection* conn, Clock::time_point start,
              Log* log) {
  for (std::uint64_t round = 0;; ++round) {
    for (const std::uint32_t item :
         RoundOrder(spec, options.seed, conn_index, round)) {
      Query(conn, spec.menu[item], item, 0, kTimed, log);
      if (log->io_failed) return;
    }
    if (MillisSince(start) >= options.seconds * 1e3) return;
  }
}

// One chain cycle of delta-churn: apply, then the step queries, per delta.
void ChurnCycle(const WorkloadSpec& spec, const LoadOptions& options,
                Connection* conn, int phase, Log* log) {
  const std::uint32_t length = 2 * spec.half_cycle;
  for (std::uint32_t d = 0; d < length && !log->io_failed; ++d) {
    const std::uint32_t state = StateOf(spec, (d + 1) % length);
    Apply(conn, options.dir, d, state, phase, log);
    for (std::uint32_t i = 0; i < spec.step_queries.size(); ++i) {
      if (log->io_failed) return;
      Query(conn, spec.step_queries[i], i, state, phase, log);
    }
  }
}

void ApplyCycles(const WorkloadSpec& spec, const LoadOptions& options,
                 Connection* conn, Log* log) {
  const std::uint32_t length = 2 * spec.half_cycle;
  for (std::uint32_t c = 0; c < spec.apply_cycles; ++c) {
    for (std::uint32_t d = 0; d < length && !log->io_failed; ++d) {
      Apply(conn, options.dir, d, StateOf(spec, (d + 1) % length),
            kApplyPhase, log);
    }
  }
}

bool WriteLogs(const std::string& dir, const std::vector<Log>& logs,
               const std::string& stats, std::string* error) {
  std::string records;
  std::map<std::pair<std::uint32_t, std::uint32_t>, const std::string*> first;
  char buffer[160];
  for (const Log& log : logs) {
    for (const Record& r : log.records) {
      std::snprintf(buffer, sizeof(buffer), "%d %d %u %u %.6f %llu %d %d\n",
                    r.kind, r.phase, r.item, r.state, r.ms,
                    static_cast<unsigned long long>(r.hash), r.cached ? 1 : 0,
                    r.error ? 1 : 0);
      records += buffer;
    }
    for (const auto& [key, reply] : log.first) first.emplace(key, &reply);
  }
  std::string replies;
  for (const auto& [key, reply] : first) {
    replies += std::to_string(key.first) + " " + std::to_string(key.second) +
               "\t" + *reply + "\n";
  }
  return WriteFile(dir + "/records.tsv", records, error) &&
         WriteFile(dir + "/replies.txt", replies, error) &&
         WriteFile(dir + "/stats.txt", stats, error);
}

}  // namespace

std::string DeltaPath(const std::string& dir, std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/delta_%03u.snap", index);
  return dir + name;
}

int RunLoad(const WorkloadSpec& spec, const LoadOptions& options) {
  std::vector<Connection> conns(spec.connections);
  for (Connection& conn : conns) {
    if (!conn.Open(options.port)) {
      std::fprintf(stderr, "load: cannot connect to port %u\n", options.port);
      return 2;
    }
  }
  std::vector<Log> logs(spec.connections);
  std::string stats;
  const bool churn = !spec.step_queries.empty();

  // Warm pass: hot-hits fills the cache with one pass over the menu;
  // delta-churn runs one whole chain cycle.
  if (churn) {
    ChurnCycle(spec, options, &conns[0], kWarm, &logs[0]);
  } else if (spec.cache) {
    for (std::uint32_t i = 0; i < spec.menu.size(); ++i) {
      Query(&conns[0], spec.menu[i], i, 0, kWarm, &logs[0]);
    }
  }
  if (!Stats(&conns[0], "before", &stats)) return 2;

  const Clock::time_point start = Clock::now();
  if (churn) {
    do {
      ChurnCycle(spec, options, &conns[0], kTimed, &logs[0]);
    } while (!logs[0].io_failed && MillisSince(start) < options.seconds * 1e3);
  } else {
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < spec.connections; ++c) {
      threads.emplace_back(TimedMix, std::cref(spec), std::cref(options), c,
                           &conns[c], start, &logs[c]);
    }
    TimedMix(spec, options, 0, &conns[0], start, &logs[0]);
    for (std::thread& t : threads) t.join();
  }
  const double timed_s = MillisSince(start) / 1e3;
  if (!Stats(&conns[0], "timed", &stats)) return 2;

  ApplyCycles(spec, options, &conns[0], &logs[0]);
  if (!Stats(&conns[0], "final", &stats)) return 2;

  for (const Log& log : logs) {
    if (log.io_failed) {
      std::fprintf(stderr, "load: connection lost\n");
      return 2;
    }
  }
  std::string error;
  if (!WriteLogs(options.dir, logs, stats, &error)) {
    std::fprintf(stderr, "load: %s\n", error.c_str());
    return 2;
  }

  std::vector<double> query_ms;
  std::vector<double> apply_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Log& log : logs) {
    for (const Record& r : log.records) {
      ++attempted;
      if (r.error) ++failed;
      if (r.kind == kQuery && r.phase == kTimed) query_ms.push_back(r.ms);
      if (r.kind == kApply && r.phase != kWarm) apply_ms.push_back(r.ms);
    }
  }
  JsonLine out;
  out.AddInt("attempted", attempted);
  out.AddInt("failed", failed);
  out.AddInt("timed_queries", query_ms.size());
  out.Add("timed_s", timed_s);
  out.Add("qps", static_cast<double>(query_ms.size()) / timed_s);
  out.Add("p50_ms", Quantile(query_ms, 0.5));
  out.Add("p99_ms", Quantile(query_ms, 0.99));
  out.Add("apply_p50_ms", Quantile(apply_ms, 0.5));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace e2e
