// Output checks, written apart from the program: the benchmark reads the
// snapshot's sections itself, replays the delta chain on its own edge
// lists, parses the wire replies with its own scanner and recomputes
// every influence with its own aggregation code. The program's Solve()
// is only called as a reference (Algorithm 1 on unconstrained sum, and a
// fresh, index-free, cache-free solve per delta-churn state).

#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bridge.h"
#include "core/search.h"
#include "util.h"

namespace e2e {

namespace {

struct Community {
  double influence = 0.0;
  std::vector<std::uint32_t> members;
};

// One graph state as the checker sees it.
struct State {
  EdgeGraph edges;
  std::vector<double> weights;
  std::vector<std::vector<std::uint32_t>> adj;  // sorted neighbour lists
};

class Checker {
 public:
  void Fail(const std::string& what) {
    if (failures_ < 20) std::fprintf(stderr, "check: %s\n", what.c_str());
    ++failures_;
  }
  void Expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) Fail(what);
  }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t failures_ = 0;
  std::uint64_t checks_ = 0;
};

// -- The snapshot, read with the benchmark's own code -----------------------

bool ReadSnapshot(const std::string& path, State* state, std::string* error) {
  std::string bytes;
  if (!ReadFile(path, &bytes, error)) return false;
  const auto u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, 4);
    return v;
  };
  const auto u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, 8);
    return v;
  };
  if (bytes.size() < 24 || bytes.compare(0, 8, "TICLSNAP") != 0 ||
      u32(8) != 2) {
    *error = "base snapshot is not a v2 snapshot";
    return false;
  }
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> sections;
  for (std::uint32_t i = 0; i < u32(12); ++i) {
    const std::size_t entry = 16 + 24 * static_cast<std::size_t>(i);
    if (entry + 24 > bytes.size()) break;
    const std::uint64_t offset = u64(entry + 8);
    const std::uint64_t length = u64(entry + 16);
    if (offset > bytes.size() || length > bytes.size() - offset) {
      *error = "snapshot section out of bounds";
      return false;
    }
    sections[u32(entry)] = {offset, length};
  }
  for (const std::uint32_t type : {1u, 2u, 3u, 4u}) {
    if (sections.count(type) == 0) {
      *error = "snapshot lacks section " + std::to_string(type);
      return false;
    }
  }
  const std::uint64_t n = u64(sections[1].first);
  const std::uint64_t adjacency_len = u64(sections[1].first + 8);
  if (sections[2].second != (n + 1) * 8 ||
      sections[3].second != adjacency_len * 4 || sections[4].second != n * 8) {
    *error = "snapshot section sizes disagree with its header";
    return false;
  }
  state->edges.n = static_cast<std::uint32_t>(n);
  state->weights.resize(n);
  std::memcpy(state->weights.data(), bytes.data() + sections[4].first, n * 8);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t begin = u64(sections[2].first + 8 * v);
    const std::uint64_t end = u64(sections[2].first + 8 * (v + 1));
    if (begin > end || end > adjacency_len) {
      *error = "snapshot offsets are not monotone";
      return false;
    }
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::uint32_t u = u32(sections[3].first + 4 * i);
      if (v < u) state->edges.edges.emplace_back(v, u);
    }
  }
  std::sort(state->edges.edges.begin(), state->edges.edges.end());
  return true;
}

void BuildAdjacency(State* state) {
  state->adj.assign(state->edges.n, {});
  for (const auto& [u, v] : state->edges.edges) {
    state->adj[u].push_back(v);
    state->adj[v].push_back(u);
  }
  for (auto& list : state->adj) std::sort(list.begin(), list.end());
}

// -- Replies, parsed with the benchmark's own scanner -----------------------

class Scanner {
 public:
  explicit Scanner(const std::string& text, std::size_t at)
      : text_(text), at_(at) {}
  bool Eat(const char* token) {
    while (at_ < text_.size() && text_[at_] == ' ') ++at_;
    const std::size_t len = std::strlen(token);
    if (text_.compare(at_, len, token) != 0) return false;
    at_ += len;
    return true;
  }
  bool Number(double* out) {
    while (at_ < text_.size() && text_[at_] == ' ') ++at_;
    const char* begin = text_.c_str() + at_;
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    if (end == begin) return false;
    at_ += static_cast<std::size_t>(end - begin);
    return true;
  }
  bool Unsigned(std::uint32_t* out) {
    while (at_ < text_.size() && text_[at_] == ' ') ++at_;
    const char* begin = text_.c_str() + at_;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (end == begin || *begin == '-' || v > 0xFFFFFFFFull) return false;
    *out = static_cast<std::uint32_t>(v);
    at_ += static_cast<std::size_t>(end - begin);
    return true;
  }

 private:
  const std::string& text_;
  std::size_t at_;
};

// Parses the "communities" array of a result reply.
bool ParseCommunities(const std::string& reply, std::vector<Community>* out) {
  const std::size_t at = reply.find("\"communities\": ");
  if (at == std::string::npos) return false;
  Scanner s(reply, at + std::strlen("\"communities\": "));
  if (!s.Eat("[")) return false;
  if (s.Eat("]")) return s.Eat("}");
  do {
    Community c;
    if (!s.Eat("{\"influence\":") || !s.Number(&c.influence) || !s.Eat(",") ||
        !s.Eat("\"members\":") || !s.Eat("[")) {
      return false;
    }
    if (!s.Eat("]")) {
      do {
        std::uint32_t v = 0;
        if (!s.Unsigned(&v)) return false;
        c.members.push_back(v);
      } while (s.Eat(","));
      if (!s.Eat("]")) return false;
    }
    if (!s.Eat("}")) return false;
    out->push_back(std::move(c));
  } while (s.Eat(","));
  return s.Eat("]") && s.Eat("}");
}

// Integer field `key` inside the object that follows `"section": {`.
std::uint64_t StatField(const std::string& reply, const std::string& section,
                        const std::string& key) {
  const std::size_t begin = reply.find("\"" + section + "\": {");
  if (begin == std::string::npos) return ~0ull;
  const std::size_t at = reply.find("\"" + key + "\": ", begin);
  if (at == std::string::npos) return ~0ull;
  return std::strtoull(reply.c_str() + at + key.size() + 4, nullptr, 10);
}

// -- Property checks --------------------------------------------------------

double Aggregate(const MenuQuery& q, const State& state,
                 const std::vector<std::uint32_t>& members) {
  double sum = 0.0;
  double lo = INFINITY;
  double hi = -INFINITY;
  for (const std::uint32_t v : members) {
    sum += state.weights[v];
    lo = std::min(lo, state.weights[v]);
    hi = std::max(hi, state.weights[v]);
  }
  const auto size = static_cast<double>(members.size());
  if (q.f == "min") return lo;
  if (q.f == "max") return hi;
  if (q.f == "avg") return sum / size;
  if (q.f == "sum-surplus") return sum + q.alpha * size;
  return sum;
}

bool SameValue(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void CheckCommunity(const MenuQuery& q, const State& state,
                    const Community& c, const std::string& where,
                    Checker* check) {
  const auto& m = c.members;
  bool sorted = !m.empty() && m.back() < state.edges.n;
  for (std::size_t i = 1; i < m.size() && sorted; ++i) sorted = m[i - 1] < m[i];
  check->Expect(sorted, where + ": members not sorted, unique and in range");
  if (!sorted) return;
  check->Expect(q.s == 0 || m.size() <= q.s, where + ": larger than s");

  // Induced minimum degree and connectivity, through a member index.
  std::vector<std::int64_t> position(state.edges.n, -1);
  for (std::size_t i = 0; i < m.size(); ++i) position[m[i]] = static_cast<std::int64_t>(i);
  std::vector<std::vector<std::uint32_t>> inside(m.size());
  bool min_degree = true;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (const std::uint32_t u : state.adj[m[i]]) {
      if (position[u] >= 0) inside[i].push_back(static_cast<std::uint32_t>(position[u]));
    }
    if (inside[i].size() < q.k) min_degree = false;
  }
  check->Expect(min_degree, where + ": induced minimum degree below k");
  std::vector<char> seen(m.size(), 0);
  std::vector<std::uint32_t> stack = {0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    for (const std::uint32_t j : inside[i]) {
      if (seen[j] == 0) {
        seen[j] = 1;
        ++reached;
        stack.push_back(j);
      }
    }
  }
  check->Expect(reached == m.size(), where + ": not connected");
  check->Expect(SameValue(c.influence, Aggregate(q, state, m)),
                where + ": influence differs from the recomputed value");
}

void CheckReply(const MenuQuery& q, const State& state,
                const std::vector<Community>& reply, const std::string& where,
                Checker* check) {
  check->Expect(reply.size() <= q.r, where + ": more than r communities");
  std::set<std::vector<std::uint32_t>> distinct;
  for (std::size_t i = 0; i < reply.size(); ++i) {
    const std::string at = where + " #" + std::to_string(i + 1);
    CheckCommunity(q, state, reply[i], at, check);
    if (i > 0) {
      check->Expect(reply[i].influence <= reply[i - 1].influence,
                    at + ": influence increases");
    }
    check->Expect(distinct.insert(reply[i].members).second,
                  at + ": duplicate member set");
  }
  if (q.tonic) {
    std::vector<char> used(state.edges.n, 0);
    bool disjoint = true;
    for (const Community& c : reply) {
      for (const std::uint32_t v : c.members) {
        if (v < used.size()) {
          disjoint &= used[v] == 0;
          used[v] = 1;
        }
      }
    }
    check->Expect(disjoint, where + ": TONIC communities overlap");
  }
}

// The reply must list exactly the reference result's communities.
void CheckEqual(const ticl::SearchResult& expected,
                const std::vector<Community>& reply, const std::string& where,
                Checker* check) {
  bool same = expected.communities.size() == reply.size();
  for (std::size_t i = 0; same && i < reply.size(); ++i) {
    same = expected.communities[i].members == reply[i].members &&
           expected.communities[i].influence == reply[i].influence;
  }
  check->Expect(same, where);
}

struct RecordLine {
  int kind = 0;
  int phase = 0;
  std::uint32_t item = 0;
  std::uint32_t state = 0;
  std::uint64_t hash = 0;
  int cached = 0;
  int error = 0;
};

bool ReadRecords(const std::string& path, std::vector<RecordLine>* out,
                 std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) return false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    RecordLine r;
    double ms = 0.0;
    fields >> r.kind >> r.phase >> r.item >> r.state >> ms >> r.hash >>
        r.cached >> r.error;
    if (!fields) {
      *error = "malformed record: " + line;
      return false;
    }
    out->push_back(r);
  }
  return true;
}

}  // namespace

int RunChecks(const WorkloadSpec& spec, const std::string& dir) {
  Checker check;
  std::string error;
  const auto fatal = [&](const std::string& what) {
    std::fprintf(stderr, "check: %s\n", what.c_str());
    return 1;
  };

  // The ingested graph must be exactly the generated edge list.
  std::vector<State> states(spec.half_cycle + 1);
  if (!ReadSnapshot(dir + "/base.snap", &states[0], &error)) {
    return fatal(error);
  }
  const EdgeGraph generated = GenerateGraph(spec);
  check.Expect(states[0].edges.n == generated.n &&
                   states[0].edges.edges == generated.edges,
               "ingested graph differs from the generated edge list");
  std::vector<Edits> chain;
  if (!ReadChainText(dir + "/chain.txt", &chain, &error)) return fatal(error);
  for (std::uint32_t s = 1; s <= spec.half_cycle; ++s) {
    states[s].edges = ApplyEdits(states[s - 1].edges, chain[s - 1]);
    states[s].weights = states[s - 1].weights;
    for (const auto& [v, w] : chain[s - 1].reweights) {
      states[s].weights[v] = w;
    }
  }

  std::vector<RecordLine> records;
  if (!ReadRecords(dir + "/records.tsv", &records, &error)) {
    return fatal(error);
  }
  std::string replies_text;
  if (!ReadFile(dir + "/replies.txt", &replies_text, &error)) {
    return fatal(error);
  }

  // Every first reply: property checks, plus the reference solves.
  const std::vector<MenuQuery>& mix = MixQueries(spec);
  const bool churn = !spec.step_queries.empty();
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> hashes;
  std::map<std::uint32_t, ticl::Graph> graphs;
  std::istringstream replies(replies_text);
  std::string line;
  while (std::getline(replies, line)) {
    const std::size_t tab = line.find('\t');
    std::uint32_t state_index = 0;
    std::uint32_t item = 0;
    if (tab == std::string::npos ||
        std::sscanf(line.c_str(), "%u %u", &state_index, &item) != 2 ||
        state_index >= states.size() || item >= mix.size()) {
      return fatal("malformed reply log line");
    }
    const std::string reply = line.substr(tab + 1);
    const MenuQuery& q = mix[item];
    State& state = states[state_index];
    if (state.adj.empty()) BuildAdjacency(&state);
    const std::string where = "state " + std::to_string(state_index) + " " +
                              ticl::QueryToString(ToQuery(q));
    std::vector<Community> communities;
    if (!ParseCommunities(reply, &communities)) {
      check.Fail(where + ": unparseable reply: " + reply.substr(0, 200));
      continue;
    }
    const std::size_t at = reply.find("\"communities\": ");
    hashes[{state_index, item}] =
        HashBytes(reply.data() + at, reply.size() - at);
    CheckReply(q, state, communities, where, &check);

    const ticl::Query query = ToQuery(q);
    const bool naive_feasible = q.f == "sum" && q.s == 0 &&
                                q.k >= spec.naive_min_k && state_index == 0;
    if (!churn && !naive_feasible) continue;
    if (graphs.count(state_index) == 0) {
      graphs.emplace(state_index, ToGraph(state.edges, state.weights));
    }
    const ticl::Graph& g = graphs.at(state_index);
    if (churn) {
      // A fresh decomposition, no index, no cache, no maintained state.
      CheckEqual(ticl::Solve(g, query), communities,
                 where + ": differs from a fresh Solve() on the replayed chain",
                 &check);
    }
    if (naive_feasible) {
      ticl::SolveOptions naive;
      naive.solver = ticl::SolverKind::kNaive;
      CheckEqual(ticl::Solve(g, query, naive), communities,
                 where + ": differs from Algorithm 1 (naive)", &check);
    }
  }

  // Every reply equals the first reply of its (state, query); every
  // request succeeded; hot-hits' timed phase is all hits.
  std::uint64_t queries = 0;
  std::uint64_t applies = 0;
  for (const RecordLine& r : records) {
    check.Expect(r.error == 0, "a request failed (kind " +
                                   std::to_string(r.kind) + ", item " +
                                   std::to_string(r.item) + ")");
    if (r.kind != 0) {
      ++applies;
      continue;
    }
    ++queries;
    const auto it = hashes.find({r.state, r.item});
    check.Expect(it != hashes.end() && it->second == r.hash,
                 "reply differs from the first reply of its query (state " +
                     std::to_string(r.state) + ", item " +
                     std::to_string(r.item) + ")");
    if (spec.cache && !churn && r.phase == 1) {
      check.Expect(r.cached == 1, "hot-hits timed reply was not a hit");
    }
  }

  std::string stats_text;
  if (!ReadFile(dir + "/stats.txt", &stats_text, &error)) return fatal(error);
  std::map<std::string, std::string> stats;
  std::istringstream stats_lines(stats_text);
  while (std::getline(stats_lines, line)) {
    const std::size_t tab = line.find('\t');
    if (tab != std::string::npos) stats[line.substr(0, tab)] = line.substr(tab + 1);
  }
  check.Expect(stats.count("before") && stats.count("timed") &&
                   stats.count("final"),
               "missing stats replies");
  check.Expect(StatField(stats["final"], "engine", "queries") == queries,
               "stats query total differs from the queries sent");
  check.Expect(StatField(stats["final"], "server", "queries_submitted") ==
                   queries,
               "stats queries_submitted differs from the queries sent");
  check.Expect(StatField(stats["final"], "engine", "deltas_applied") == applies,
               "stats deltas_applied differs from the applies sent");
  if (spec.cache && !churn) {
    check.Expect(StatField(stats["timed"], "engine", "cache_misses") ==
                     StatField(stats["before"], "engine", "cache_misses"),
                 "hot-hits timed phase missed the cache");
  }

  JsonLine out;
  out.AddInt("checks", check.checks());
  out.AddInt("failures", check.failures());
  out.AddInt("replies_checked", hashes.size());
  std::printf("%s\n", out.str().c_str());
  return check.failures() == 0 ? 0 : 1;
}

}  // namespace e2e
