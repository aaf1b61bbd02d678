// Seeded inputs of the end-to-end benchmark: the graph, the query menus,
// the per-round request orders and the delta chain.
//
// Everything here is the benchmark's own code, so a change to the
// program's generators cannot change what is measured. The program only
// ever receives the files written from these values.

#ifndef E2E_BENCH_INPUTS_H_
#define E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// splitmix64: small, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t Below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Independent streams derived from the run's seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// One entry of a query menu, as it goes over the wire.
struct MenuQuery {
  std::string f;  // sum | min | max | avg | sum-surplus
  std::uint32_t k = 1;
  std::uint32_t r = 1;
  std::uint32_t s = 0;  // 0 = size-unconstrained
  bool tonic = false;
  double alpha = 0.0;  // sum-surplus only
  /// Occurrences of this entry in one round of the timed mix.
  std::uint32_t per_round = 1;
};

/// {"id": <id>, "k": .., "r": .., ...}
std::string RequestLine(const MenuQuery& q, std::uint64_t id);

/// Edits of one delta: counts per kind.
struct BatchShape {
  std::uint32_t inserts = 0;
  std::uint32_t deletes = 0;
  std::uint32_t reweights = 0;
};

struct WorkloadSpec {
  std::string name;
  // Chung-Lu shape of the generated graph. The graph is fixed per
  // workload (graph_seed): solver cost on these graphs varies by a factor
  // of two between random instances, which would swamp any change a run
  // is meant to show. The run's --seed drives everything else.
  std::uint32_t n = 0;
  double avg_degree = 0.0;
  double gamma = 0.0;
  std::uint64_t graph_seed = 0;
  /// false: the server runs with --cache 0, so every request solves.
  bool cache = true;
  /// Client connections in the timed phase (closed loop each).
  unsigned connections = 1;
  /// Timed query mix (solve-mix, hot-hits). The round is the multiset
  /// {menu[i] x per_round}; the seed only orders it.
  std::vector<MenuQuery> menu;
  /// delta-churn: queries sent after every apply, in this order.
  std::vector<MenuQuery> step_queries;
  /// Delta chain: `half_cycle` forward deltas, then their inverses in
  /// reverse order, so the chain returns to the base graph and can be
  /// replayed for as many cycles as the run lasts.
  std::uint32_t half_cycle = 0;
  BatchShape batch;
  /// solve-mix / hot-hits: whole chain cycles applied after the timed
  /// query phase (the serve.server.apply_rtt_ms samples).
  std::uint32_t apply_cycles = 0;
  /// Unconstrained sum replies on the base graph are compared with
  /// Algorithm 1 from this k up (it needs 21 s at k=4 on n=8000).
  std::uint32_t naive_min_k = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Undirected simple graph as a sorted edge list (u < v).
struct EdgeGraph {
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/// Chung-Lu graph of the workload's shape from spec.graph_seed; vertex ids
/// are shuffled, and the highest id always has an edge so an edge-list
/// reader sees exactly n vertices.
EdgeGraph GenerateGraph(const WorkloadSpec& spec);

/// Timed-mix request order of one round for one connection: a seeded
/// shuffle of the round's multiset, as indices into spec.menu.
std::vector<std::uint32_t> RoundOrder(const WorkloadSpec& spec,
                                      std::uint64_t seed, unsigned conn,
                                      std::uint64_t round);

/// One delta of the chain, in the benchmark's own terms.
struct Edits {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inserts;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deletes;
  std::vector<std::pair<std::uint32_t, double>> reweights;  // new weight
};

/// The whole chain (2 * half_cycle deltas). Delta i moves state i to
/// state i + 1; state 2 * half_cycle equals state 0. `weights` are the
/// base graph's vertex weights (reweights scale them and the inverse
/// deltas restore them exactly).
std::vector<Edits> GenerateChain(const WorkloadSpec& spec, std::uint64_t seed,
                                 const EdgeGraph& base,
                                 const std::vector<double>& weights);

/// Number of distinct graph states the chain visits (half_cycle + 1);
/// state i of the cycle is distinct state StateOf(i).
std::uint32_t StateOf(const WorkloadSpec& spec, std::uint32_t cycle_state);

/// Text form of the chain for the checker: one delta per block.
bool WriteChainText(const std::string& path, const std::vector<Edits>& chain,
                    std::string* error);
bool ReadChainText(const std::string& path, std::vector<Edits>* chain,
                   std::string* error);

}  // namespace e2e

#endif  // E2E_BENCH_INPUTS_H_
