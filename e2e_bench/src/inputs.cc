#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace e2e {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::Below(std::uint64_t bound) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~0ull - (~0ull % bound);
  std::uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % bound;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + stream);
  rng.Next();
  return rng.Next();
}

std::string RequestLine(const MenuQuery& q, std::uint64_t id) {
  char buffer[256];
  int len = std::snprintf(buffer, sizeof(buffer),
                          "{\"id\": %llu, \"k\": %u, \"r\": %u, \"f\": \"%s\"",
                          static_cast<unsigned long long>(id), q.k, q.r,
                          q.f.c_str());
  std::string line(buffer, static_cast<std::size_t>(len));
  if (q.s != 0) line += ", \"s\": " + std::to_string(q.s);
  if (q.tonic) line += ", \"non_overlapping\": true";
  if (q.f == "sum-surplus") {
    len = std::snprintf(buffer, sizeof(buffer), ", \"alpha\": %.17g", q.alpha);
    line.append(buffer, static_cast<std::size_t>(len));
  }
  line += "}\n";
  return line;
}

namespace {

MenuQuery Q(const char* f, std::uint32_t k, std::uint32_t r, std::uint32_t s,
            std::uint32_t per_round, bool tonic = false, double alpha = 0.0) {
  MenuQuery q;
  q.f = f;
  q.k = k;
  q.r = r;
  q.s = s;
  q.per_round = per_round;
  q.tonic = tonic;
  q.alpha = alpha;
  return q;
}

// The dblp stand-in's shape: average degree 6.6, power-law exponent 2.3.
constexpr double kDblpDegree = 6.6;
constexpr double kDblpGamma = 2.3;

// One menu for solve-mix and hot-hits, over the dblp-shaped graph at
// n = 8000. per_round follows a Zipf-like rank weighting: the cheap,
// popular queries repeat, the expensive ones appear once a round.
std::vector<MenuQuery> DblpMenu() {
  return {
      Q("min", 3, 5, 0, 12),            // min-peel
      Q("max", 4, 5, 0, 8),             // max-components
      Q("sum", 10, 5, 0, 6),            // improved search
      Q("min", 6, 10, 0, 5),            // min-peel
      Q("sum", 4, 10, 0, 1),            // improved, the 160 KB reply
      Q("sum", 4, 5, 20, 4),            // local search, size-constrained
      Q("avg", 5, 3, 12, 3),            // local search, avg
      Q("sum-surplus", 6, 5, 0, 2, false, 0.5),  // improved, sum-surplus
      Q("sum", 5, 5, 0, 2, true),       // TONIC
      Q("max", 8, 10, 0, 2),            // max-components
  };
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec solve;
  solve.name = "solve-mix";
  solve.n = 8000;
  solve.avg_degree = kDblpDegree;
  solve.gamma = kDblpGamma;
  solve.graph_seed = 0xDB1B;
  solve.cache = false;
  solve.connections = 1;
  solve.menu = DblpMenu();
  // Bulk deltas (256 edits, about 1% of m) after the timed phase, so the
  // update path is also seen at 1% churn; delta-churn covers 16-edit
  // deltas at n = 64000.
  solve.half_cycle = 8;
  solve.batch = {128, 64, 64};
  solve.apply_cycles = 8;
  solve.naive_min_k = 5;
  all.push_back(solve);

  WorkloadSpec hot = solve;
  hot.name = "hot-hits";
  hot.cache = true;
  hot.connections = 2;
  all.push_back(hot);

  WorkloadSpec churn;
  churn.name = "delta-churn";
  churn.n = 64000;
  churn.avg_degree = kDblpDegree;
  churn.gamma = kDblpGamma;
  churn.graph_seed = 0xDB1B8;
  churn.cache = true;
  churn.connections = 1;
  // Periphery churn always evicts the low k-levels and rarely the high
  // ones, so replies follow the partial-invalidation keep rule: min k=4
  // (three keys) and max k=3 miss every step, sum k=20 and k=24 hit. The
  // median request is a min k=4 solve and the p99 one a max k=3 solve,
  // each inside one wide cluster whatever the seed's hit share.
  churn.step_queries = {
      Q("max", 3, 5, 0, 1),  Q("min", 4, 3, 0, 1),  Q("min", 4, 5, 0, 1),
      Q("min", 4, 8, 0, 1),  Q("sum", 20, 3, 0, 1), Q("sum", 24, 3, 0, 1),
  };
  churn.naive_min_k = 24;
  churn.half_cycle = 16;
  churn.batch = {8, 4, 4};
  all.push_back(churn);
  return all;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

std::uint64_t EdgeKey(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Expected-degree sequence of the Chung-Lu model, indexed by rank.
std::vector<double> ChungLuThetas(const WorkloadSpec& spec) {
  const double exponent = -1.0 / (spec.gamma - 1.0);
  std::vector<double> theta(spec.n);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < spec.n; ++i) {
    theta[i] = std::pow(static_cast<double>(i) + 1.0, exponent);
    sum += theta[i];
  }
  const double scale = static_cast<double>(spec.n) * spec.avg_degree / sum;
  for (double& t : theta) t *= scale;
  return theta;
}

// Samples vertex ranks proportionally to theta.
class RankSampler {
 public:
  explicit RankSampler(const std::vector<double>& theta)
      : cumulative_(theta.size()) {
    double acc = 0.0;
    for (std::size_t i = 0; i < theta.size(); ++i) {
      acc += theta[i];
      cumulative_[i] = acc;
    }
  }
  std::uint32_t Sample(Rng* rng) const {
    const double x = rng->Uniform() * cumulative_.back();
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), x);
    const auto rank = static_cast<std::size_t>(it - cumulative_.begin());
    return static_cast<std::uint32_t>(std::min(rank, cumulative_.size() - 1));
  }
  double total() const { return cumulative_.back(); }

 private:
  std::vector<double> cumulative_;
};

// Rank -> vertex id permutation of a generated graph.
std::vector<std::uint32_t> VertexLabels(const WorkloadSpec& spec,
                                        std::uint64_t seed) {
  std::vector<std::uint32_t> label(spec.n);
  for (std::uint32_t i = 0; i < spec.n; ++i) label[i] = i;
  Rng rng(SubSeed(seed, 2));
  for (std::uint32_t i = spec.n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.Below(i)]);
  }
  return label;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

EdgeGraph GenerateGraph(const WorkloadSpec& spec) {
  const std::vector<double> theta = ChungLuThetas(spec);
  const RankSampler sampler(theta);
  std::vector<std::uint32_t> label = VertexLabels(spec, spec.graph_seed);

  Rng rng(SubSeed(spec.graph_seed, 1));
  const auto samples = static_cast<std::uint64_t>(sampler.total() / 2.0);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(samples * 2);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rank_edges;
  std::vector<std::uint32_t> degree(spec.n, 0);
  for (std::uint64_t e = 0; e < samples; ++e) {
    const std::uint32_t a = sampler.Sample(&rng);
    const std::uint32_t b = sampler.Sample(&rng);
    if (a == b || !seen.insert(EdgeKey(a, b)).second) continue;
    rank_edges.emplace_back(a, b);
    ++degree[a];
    ++degree[b];
  }
  // The rank holding the top id must have an edge, or an edge-list
  // reader would see fewer vertices.
  const auto top = static_cast<std::uint32_t>(
      std::find(label.begin(), label.end(), spec.n - 1) - label.begin());
  if (degree[top] == 0) std::swap(label[top], label[0]);

  EdgeGraph g;
  g.n = spec.n;
  g.edges.reserve(rank_edges.size());
  for (const auto& [a, b] : rank_edges) {
    std::uint32_t u = label[a];
    std::uint32_t v = label[b];
    if (u > v) std::swap(u, v);
    g.edges.emplace_back(u, v);
  }
  std::sort(g.edges.begin(), g.edges.end());
  return g;
}

std::vector<std::uint32_t> RoundOrder(const WorkloadSpec& spec,
                                      std::uint64_t seed, unsigned conn,
                                      std::uint64_t round) {
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < spec.menu.size(); ++i) {
    order.insert(order.end(), spec.menu[i].per_round, i);
  }
  Rng rng(SubSeed(seed, 1000 + 7919 * conn + 104729 * round));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

std::vector<Edits> GenerateChain(const WorkloadSpec& spec, std::uint64_t seed,
                                 const EdgeGraph& base,
                                 const std::vector<double>& weights) {
  // Churn at the periphery, where most of a sparse power-law graph lives:
  // deletes drop a random edge of a uniformly chosen vertex, inserts join
  // two uniformly chosen vertices, reweights scale a uniformly chosen
  // vertex's weight by [0.5, 1.5). The inverse deltas restore it exactly.
  std::vector<std::vector<std::uint32_t>> adj(base.n);
  std::unordered_set<std::uint64_t> present;
  present.reserve(base.edges.size() * 2);
  for (const auto& [u, v] : base.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
    present.insert(EdgeKey(u, v));
  }
  const auto unlink = [&](std::uint32_t a, std::uint32_t b) {
    auto& list = adj[a];
    list.erase(std::find(list.begin(), list.end(), b));
  };
  std::vector<double> weight = weights;

  Rng rng(SubSeed(seed, 3));
  std::vector<Edits> forward;
  std::vector<Edits> inverse;
  for (std::uint32_t d = 0; d < spec.half_cycle; ++d) {
    Edits edits;
    Edits undo;
    std::unordered_set<std::uint64_t> touched;
    while (edits.deletes.size() < spec.batch.deletes) {
      const auto v = static_cast<std::uint32_t>(rng.Below(base.n));
      if (adj[v].empty()) continue;
      const std::uint32_t u = adj[v][rng.Below(adj[v].size())];
      if (!touched.insert(EdgeKey(u, v)).second) continue;
      edits.deletes.emplace_back(std::min(u, v), std::max(u, v));
      unlink(u, v);
      unlink(v, u);
      present.erase(EdgeKey(u, v));
    }
    while (edits.inserts.size() < spec.batch.inserts) {
      const auto u = static_cast<std::uint32_t>(rng.Below(base.n));
      const auto v = static_cast<std::uint32_t>(rng.Below(base.n));
      const std::uint64_t key = EdgeKey(u, v);
      if (u == v || present.count(key) != 0 || !touched.insert(key).second) {
        continue;
      }
      edits.inserts.emplace_back(std::min(u, v), std::max(u, v));
    }
    for (const auto& [u, v] : edits.inserts) {
      adj[u].push_back(v);
      adj[v].push_back(u);
      present.insert(EdgeKey(u, v));
    }
    std::unordered_set<std::uint32_t> reweighted;
    while (edits.reweights.size() < spec.batch.reweights) {
      const auto v = static_cast<std::uint32_t>(rng.Below(base.n));
      if (!reweighted.insert(v).second) continue;
      const double scaled = weight[v] * (0.5 + rng.Uniform());
      undo.reweights.emplace_back(v, weight[v]);
      edits.reweights.emplace_back(v, scaled);
      weight[v] = scaled;
    }
    undo.inserts = edits.deletes;
    undo.deletes = edits.inserts;
    forward.push_back(std::move(edits));
    inverse.push_back(std::move(undo));
  }
  std::vector<Edits> chain = std::move(forward);
  for (auto it = inverse.rbegin(); it != inverse.rend(); ++it) {
    chain.push_back(std::move(*it));
  }
  return chain;
}

std::uint32_t StateOf(const WorkloadSpec& spec, std::uint32_t cycle_state) {
  const std::uint32_t h = spec.half_cycle;
  return cycle_state <= h ? cycle_state : 2 * h - cycle_state;
}

bool WriteChainText(const std::string& path, const std::vector<Edits>& chain,
                    std::string* error) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    *error = "cannot write " + path;
    return false;
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    std::fprintf(out, "delta %zu\n", i);
    for (const auto& [u, v] : chain[i].inserts) std::fprintf(out, "+ %u %u\n", u, v);
    for (const auto& [u, v] : chain[i].deletes) std::fprintf(out, "- %u %u\n", u, v);
    for (const auto& [v, w] : chain[i].reweights) {
      std::fprintf(out, "w %u %.17g\n", v, w);
    }
  }
  const bool ok = std::fclose(out) == 0;
  if (!ok) *error = "write error on " + path;
  return ok;
}

bool ReadChainText(const std::string& path, std::vector<Edits>* chain,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  chain->clear();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "delta") {
      chain->emplace_back();
      continue;
    }
    if (chain->empty()) {
      *error = "chain text starts without a delta header";
      return false;
    }
    Edits& edits = chain->back();
    std::uint32_t a = 0;
    if (tag == "w") {
      double w = 0.0;
      fields >> a >> w;
      edits.reweights.emplace_back(a, w);
    } else {
      std::uint32_t b = 0;
      fields >> a >> b;
      (tag == "+" ? edits.inserts : edits.deletes).emplace_back(a, b);
    }
    if (!fields || (tag != "w" && tag != "+" && tag != "-")) {
      *error = "malformed chain line: " + line;
      return false;
    }
  }
  return true;
}

}  // namespace e2e
