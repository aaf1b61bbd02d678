// Golden answers for every SolverKind. Each case solves one query on a
// seeded graph and folds the answer, (influence bits, members) per
// community in rank order, into a 64-bit digest that must match a
// constant recorded from a known-good build. Local search and the greedy
// TONIC min peel have no exact oracle elsewhere, so this is what pins
// their answers bit for bit across rewrites of the shared subset kernel.
// Every case also runs seeded from a CoreIndex, which must not change it.
//
// On a mismatch the test prints every case's digest; paste them into
// kCases only when an answer change is intended.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "algo/weights.h"
#include "core/search.h"
#include "gen/dataset_suite.h"
#include "gen/erdos_renyi.h"
#include "gen/planted_communities.h"
#include "serve/core_index.h"

namespace ticl {
namespace {

enum GoldenGraph { kTinyEr, kEr, kDenseEr, kPlanted, kEmail, kDblp };

Graph Weighted(Graph g, WeightScheme scheme, std::uint64_t seed = 0) {
  AssignWeights(&g, scheme, seed);
  return g;
}

const Graph& GetGraph(GoldenGraph which) {
  static const std::vector<Graph> graphs = [] {
    // Dense blocks in a sparse background: k-cores with several
    // components, for the TONIC and component-ranking solvers.
    PlantedCommunitiesOptions planted;
    planted.background_vertices = 400;
    planted.background_average_degree = 5.0;
    planted.num_communities = 6;
    planted.community_size = 12;
    planted.intra_probability = 0.7;
    planted.weight_boost = 2.0;
    planted.seed = 5;
    std::vector<Graph> out;
    out.push_back(Weighted(GenerateErdosRenyi(13, 36, 7),
                           WeightScheme::kUniform, 11));
    out.push_back(Weighted(GenerateErdosRenyi(120, 420, 21),
                           WeightScheme::kUniform, 22));
    out.push_back(Weighted(GenerateErdosRenyi(300, 2400, 33),
                           WeightScheme::kLogNormal, 34));
    out.push_back(GeneratePlantedCommunities(planted).graph);
    out.push_back(Weighted(GenerateStandIn(StandIn::kEmail, 0.25),
                           WeightScheme::kPageRank));
    out.push_back(Weighted(GenerateStandIn(StandIn::kDblp, 0.25),
                           WeightScheme::kPageRank));
    return out;
  }();
  return graphs[which];
}

struct GoldenCase {
  const char* name;
  GoldenGraph graph;
  SolverKind solver;
  VertexId k;
  std::uint32_t r;
  VertexId s;
  AggregationSpec f;
  bool tonic;
  unsigned threads;  // local search workers
  std::uint64_t digest;
};

std::uint64_t Mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

std::uint64_t AnswerDigest(const SearchResult& result) {
  std::uint64_t h = Mix(0, result.communities.size());
  for (const Community& c : result.communities) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.influence, sizeof(bits));
    h = Mix(h, bits);
    h = Mix(h, c.members.size());
    for (const VertexId v : c.members) h = Mix(h, v);
  }
  return h;
}

std::uint64_t SolveDigest(const GoldenCase& c) {
  Query query;
  query.k = c.k;
  query.r = c.r;
  query.size_limit = c.s;
  query.aggregation = c.f;
  query.non_overlapping = c.tonic;
  SolveOptions options;
  options.solver = c.solver;
  options.local.num_threads = c.threads;
  const Graph& g = GetGraph(c.graph);
  const std::uint64_t digest = AnswerDigest(Solve(g, query, options));
  const CoreIndex index(g);
  options.core_index = &index;
  EXPECT_EQ(AnswerDigest(Solve(g, query, options)), digest) << c.name;
  return digest;
}

using A = AggregationSpec;
using enum SolverKind;

// Recorded before the solvers moved onto one SubsetPeeler kernel.
// name, graph, solver, k, r, s, f, tonic, threads, digest
const GoldenCase kCases[] = {
    {"naive_sum_er", kEr, kNaive, 2, 6, 0, A::Sum(), false, 1,
     0xe4aad4d1c04156b0ULL},
    {"naive_surplus_er", kEr, kNaive, 3, 5, 0, A::SumSurplus(0.3), false, 1,
     0xe9ca7fa33e6d99d6ULL},
    {"naive_sum_planted", kPlanted, kNaive, 4, 6, 0, A::Sum(), false, 1,
     0x4fef916d175bdb4fULL},
    {"naive_sum_tonic_planted", kPlanted, kNaive, 4, 4, 0, A::Sum(), true, 1,
     0x7c275f5756d609d5ULL},
    {"naive_sum_email", kEmail, kNaive, 4, 5, 0, A::Sum(), false, 1,
     0x00691233e88361dbULL},
    {"improved_sum_er", kEr, kImproved, 2, 8, 0, A::Sum(), false, 1,
     0x6c470d14aa59bcd3ULL},
    {"improved_surplus_dense", kDenseEr, kImproved, 4, 6, 0, A::SumSurplus(0.5),
     false, 1, 0x78b1cf7cde1f37d8ULL},
    {"improved_sum_tonic_planted", kPlanted, kImproved, 5, 5, 0, A::Sum(), true,
     1, 0xd12ea193c9cd378dULL},
    {"improved_surplus_planted", kPlanted, kImproved, 4, 8, 0,
     A::SumSurplus(1.0), false, 1, 0xe41ff338501a3b36ULL},
    {"improved_sum_email", kEmail, kImproved, 4, 10, 0, A::Sum(), false, 1,
     0x2eddca9b33c48c20ULL},
    {"improved_sum_dblp", kDblp, kImproved, 3, 5, 0, A::Sum(), false, 1,
     0x62af2e9d209921efULL},
    {"approx_sum_er", kEr, kApprox, 2, 6, 0, A::Sum(), false, 1,
     0x0ad7aa8bfe97774aULL},
    {"approx_sum_email", kEmail, kApprox, 4, 8, 0, A::Sum(), false, 1,
     0x4a34ef9062b0dfc1ULL},
    {"exact_sum_tiny", kTinyEr, kExact, 2, 4, 5, A::Sum(), false, 1,
     0xfa8f016e63e3c659ULL},
    {"exact_avg_tiny", kTinyEr, kExact, 2, 3, 6, A::Avg(), false, 1,
     0xbc516a1bb05bd918ULL},
    {"exact_min_tonic_tiny", kTinyEr, kExact, 2, 3, 5, A::Min(), true, 1,
     0xedd0df541bdc906bULL},
    {"exact_max_tiny", kTinyEr, kExact, 3, 3, 0, A::Max(), false, 1,
     0x8862e4664b45d040ULL},
    {"greedy_sum_s_er", kEr, kLocalGreedy, 2, 6, 8, A::Sum(), false, 1,
     0x0d81f745120243b3ULL},
    {"greedy_sum_dense", kDenseEr, kLocalGreedy, 2, 5, 0, A::Sum(), false, 1,
     0x538b465456a5ae54ULL},
    {"greedy_sum_s_planted", kPlanted, kLocalGreedy, 3, 6, 10, A::Sum(), false,
     1, 0x3a7395e767b84e77ULL},
    {"greedy_avg_s_planted", kPlanted, kLocalGreedy, 4, 6, 9, A::Avg(), false,
     1, 0x08da1e6b66d9785eULL},
    {"greedy_avg_email", kEmail, kLocalGreedy, 4, 10, 0, A::Avg(), false, 1,
     0xbc47159aefbcd20dULL},
    {"greedy_sum_s_tonic_email", kEmail, kLocalGreedy, 4, 6, 20, A::Sum(), true,
     1, 0x99c99e306e30f9e2ULL},
    {"greedy_min_s_dblp", kDblp, kLocalGreedy, 3, 5, 15, A::Min(), false, 1,
     0x063fb3cbaa015445ULL},
    {"greedy_max_s_tonic_planted", kPlanted, kLocalGreedy, 3, 4, 10, A::Max(),
     true, 1, 0xdeab91d6011b289bULL},
    {"greedy_surplus_s_dblp", kDblp, kLocalGreedy, 3, 6, 20, A::SumSurplus(0.1),
     false, 1, 0xe31310500a13e8aaULL},
    {"greedy_avg_s_email_parallel", kEmail, kLocalGreedy, 4, 8, 20, A::Avg(),
     false, 3, 0x57dc21da1dc6a8e7ULL},
    {"random_avg_s_er", kEr, kLocalRandom, 2, 5, 10, A::Avg(), false, 1,
     0x820b13883b35c773ULL},
    {"random_sum_s_tonic_dblp", kDblp, kLocalRandom, 3, 5, 16, A::Sum(), true,
     1, 0x822c015b6ecdc08dULL},
    {"random_avg_dblp_parallel", kDblp, kLocalRandom, 3, 6, 0, A::Avg(), false,
     2, 0x18b7e6995001e952ULL},
    {"minpeel_er", kEr, kMinPeel, 2, 6, 0, A::Min(), false, 1,
     0x5caad33f33732640ULL},
    {"minpeel_tonic_er", kEr, kMinPeel, 2, 5, 0, A::Min(), true, 1,
     0xf0486d5f9c69cae9ULL},
    {"minpeel_planted", kPlanted, kMinPeel, 4, 8, 0, A::Min(), false, 1,
     0xc1d0a91cd458d705ULL},
    {"minpeel_email", kEmail, kMinPeel, 4, 10, 0, A::Min(), false, 1,
     0xcba5d79fde8bb4bfULL},
    {"minpeel_tonic_dblp", kDblp, kMinPeel, 3, 8, 0, A::Min(), true, 1,
     0xc7c8532e887c551cULL},
    {"maxcomp_planted", kPlanted, kMaxComponents, 4, 4, 0, A::Max(), false, 1,
     0x23c935a14b37a377ULL},
    {"maxcomp_tonic_planted", kPlanted, kMaxComponents, 5, 3, 0, A::Max(), true,
     1, 0x5a2ddfbd4e541cf3ULL},
    {"maxcomp_dblp", kDblp, kMaxComponents, 2, 10, 0, A::Max(), false, 1,
     0x5cb5a4bdd7809103ULL},
    {"auto_sum_email", kEmail, kAuto, 5, 5, 0, A::Sum(), false, 1,
     0x98fff86e44738ba4ULL},
    {"auto_avg_s_dblp", kDblp, kAuto, 3, 5, 12, A::Avg(), false, 1,
     0x9290a2b77816646bULL},
    {"auto_min_tonic_email", kEmail, kAuto, 4, 4, 0, A::Min(), true, 1,
     0x56994c8d4231bc98ULL},
};

TEST(SolverGoldenTest, EverySolverKindIsCovered) {
  for (const SolverKind kind :
       {kAuto, kNaive, kImproved, kApprox, kExact, kLocalGreedy,
        kLocalRandom, kMinPeel, kMaxComponents}) {
    bool found = false;
    for (const GoldenCase& c : kCases) found = found || c.solver == kind;
    EXPECT_TRUE(found) << SolverKindName(kind);
  }
}

TEST(SolverGoldenTest, AnswersMatchRecordedDigests) {
  bool all_match = true;
  for (const GoldenCase& c : kCases) {
    const std::uint64_t digest = SolveDigest(c);
    EXPECT_EQ(digest, c.digest) << c.name;
    all_match = all_match && digest == c.digest;
  }
  if (all_match) return;
  for (const GoldenCase& c : kCases) {
    std::printf("%s 0x%016llxULL\n", c.name,
                static_cast<unsigned long long>(SolveDigest(c)));
  }
}

}  // namespace
}  // namespace ticl
