#include "serve/core_index.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/core_decomposition.h"
#include "algo/weights.h"
#include "core/search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::ToVector;
using testing::TwoTrianglesAndK4;

Graph WeightedChungLu(std::uint64_t seed) {
  ChungLuOptions cl;
  cl.num_vertices = 600;
  cl.target_average_degree = 8.0;
  cl.gamma = 2.5;
  cl.seed = seed;
  Graph g = GenerateChungLu(cl);
  AssignWeights(&g, WeightScheme::kPageRank, seed);
  return g;
}

TEST(CoreIndexTest, MatchesFromScratchPrimitives) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Graph g = WeightedChungLu(seed);
    const CoreIndex index(g);
    EXPECT_EQ(index.degeneracy(), CoreDecomposition(g).degeneracy);
    // One past the degeneracy exercises the empty-core path.
    for (VertexId k = 1; k <= index.degeneracy() + 1; ++k) {
      EXPECT_EQ(index.CoreMembers(k), MaximalKCore(g, k)) << "k=" << k;
    }
  }
}

TEST(CoreIndexTest, CoreNumbersMatchDecomposition) {
  const Graph g = TwoTrianglesAndK4();
  const CoreIndex index(g);
  const CoreDecompositionResult decomp = CoreDecomposition(g);
  EXPECT_EQ(ToVector(index.core_numbers()), decomp.core);
  EXPECT_EQ(index.degeneracy(), 3u);  // the K4
  EXPECT_EQ(index.CoreMembers(3), testing::Members({6, 7, 8, 9}));
  EXPECT_TRUE(index.CoreMembers(4).empty());
}

TEST(CoreIndexTest, IndexedHelpersFallBackWithoutIndex) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_EQ(IndexedMaximalKCore(nullptr, g, 2), MaximalKCore(g, 2));
  const CoreIndex index(g);
  EXPECT_EQ(IndexedMaximalKCore(&index, g, 2), MaximalKCore(g, 2));
}

TEST(CoreIndexTest, FingerprintAcceptedAcrossGraphCopies) {
  const Graph g = TwoTrianglesAndK4();
  const Graph copy = g;  // same fingerprint, different object
  const CoreIndex index(g);
  EXPECT_EQ(IndexedMaximalKCore(&index, copy, 2), MaximalKCore(copy, 2));
}

TEST(CoreIndexDeathTest, MismatchedIndexRejectedBySolve) {
  const Graph g = WeightedChungLu(5);
  const Graph other = TwoTrianglesAndK4();
  const CoreIndex foreign(other);
  SolveOptions options;
  options.core_index = &foreign;
  Query q;
  q.k = 2;
  q.r = 1;
  q.aggregation = AggregationSpec::Sum();
  EXPECT_DEATH(Solve(g, q, options), "different graph");
}

TEST(CoreIndexDeathTest, MismatchedIndexRejectedByHelpers) {
  const Graph a = TwoTrianglesAndK4();
  const Graph b = testing::CycleGraph(8);
  const CoreIndex index(a);
  EXPECT_DEATH(IndexedMaximalKCore(&index, b, 2), "different graph");
}

TEST(CoreIndexTest, SerializationRoundTripCopyAndView) {
  const Graph g = WeightedChungLu(7);
  const CoreIndex index(g);
  std::vector<unsigned char> bytes;
  index.AppendSerialized(&bytes);
  ASSERT_EQ(bytes.size(), index.SerializedSize());

  std::string error;
  for (const bool copy_data : {true, false}) {
    // `bytes` comes from operator new, so it satisfies the 8-byte
    // alignment the payload format requires.
    const auto restored = CoreIndex::Deserialize(g, bytes.data(),
                                                 bytes.size(), copy_data,
                                                 &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->degeneracy(), index.degeneracy());
    EXPECT_TRUE(restored->fingerprint() == g.fingerprint());
    EXPECT_EQ(ToVector(restored->core_numbers()),
              ToVector(index.core_numbers()));
    for (VertexId k = 1; k <= index.degeneracy() + 1; ++k) {
      EXPECT_EQ(restored->CoreMembers(k), index.CoreMembers(k)) << "k=" << k;
    }
  }
}

/// A serialized index over TwoTrianglesAndK4 (32-byte header, then one
/// uint32 core number per vertex), copied into a uint64_t-backed buffer so
/// tests can shift it off the 8-byte boundary.
struct Payload {
  std::vector<std::uint64_t> storage;
  std::size_t size = 0;

  explicit Payload(const CoreIndex& index) {
    std::vector<unsigned char> bytes;
    index.AppendSerialized(&bytes);
    size = bytes.size();
    storage.assign(size / 8 + 2, 0);
    std::memcpy(storage.data(), bytes.data(), size);
  }
  unsigned char* data() {
    return reinterpret_cast<unsigned char*>(storage.data());
  }
  void PutU32(std::size_t offset, std::uint32_t value) {
    std::memcpy(data() + offset, &value, sizeof(value));
  }
  std::unique_ptr<CoreIndex> Load(const Graph& g, std::string* error) {
    return CoreIndex::Deserialize(g, data(), size, /*copy_data=*/true, error);
  }
};

void ExpectRejected(const Graph& g, Payload payload, const char* needle) {
  std::string error;
  EXPECT_EQ(payload.Load(g, &error), nullptr) << needle;
  EXPECT_NE(error.find(needle), std::string::npos) << error;
}

TEST(CoreIndexTest, SerializedPayloadIsHeaderPlusCoreNumbers) {
  const Graph g = TwoTrianglesAndK4();
  const CoreIndex index(g);
  EXPECT_EQ(index.SerializedSize(), 32 + 4 * g.num_vertices());
  Payload payload(index);
  ASSERT_EQ(payload.size, index.SerializedSize());
  std::string error;
  EXPECT_NE(payload.Load(g, &error), nullptr) << error;
}

TEST(CoreIndexTest, DeserializeRejectsForeignGraph) {
  const Graph g = WeightedChungLu(7);
  const CoreIndex index(g);
  std::vector<unsigned char> bytes;
  index.AppendSerialized(&bytes);

  const Graph other = TwoTrianglesAndK4();
  std::string error;
  EXPECT_EQ(CoreIndex::Deserialize(other, bytes.data(), bytes.size(),
                                   /*copy_data=*/true, &error),
            nullptr);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(CoreIndexTest, DeserializeRejectsWrongSize) {
  const Graph g = TwoTrianglesAndK4();
  const CoreIndex index(g);
  Payload short_by_one(index);
  short_by_one.size -= 4;
  ExpectRejected(g, short_by_one, "32 + 4n");
  Payload long_by_one(index);
  long_by_one.size += 4;
  ExpectRejected(g, long_by_one, "32 + 4n");
  Payload header_only(index);
  header_only.size = 16;
  ExpectRejected(g, header_only, "too small");
}

TEST(CoreIndexTest, DeserializeRejectsCoreNumberAboveDegeneracy) {
  const Graph g = TwoTrianglesAndK4();
  Payload payload{CoreIndex(g)};
  payload.PutU32(32 + 4 * 0, 4);  // degeneracy is 3
  ExpectRejected(g, payload, "exceeds degeneracy");
}

TEST(CoreIndexTest, DeserializeRejectsDegeneracyAboveMaxCore) {
  const Graph g = TwoTrianglesAndK4();
  Payload payload{CoreIndex(g)};
  payload.PutU32(24, 4);  // every core number is <= 3
  ExpectRejected(g, payload, "largest core number");
}

TEST(CoreIndexTest, DeserializeRejectsMisalignedPayload) {
  const Graph g = TwoTrianglesAndK4();
  Payload payload{CoreIndex(g)};
  std::memmove(payload.data() + 4, payload.data(), payload.size);
  std::string error;
  EXPECT_EQ(CoreIndex::Deserialize(g, payload.data() + 4, payload.size,
                                   /*copy_data=*/false, &error),
            nullptr);
  EXPECT_NE(error.find("aligned"), std::string::npos) << error;
}

void ExpectIdenticalResults(const SearchResult& a, const SearchResult& b,
                            const char* label) {
  ASSERT_EQ(a.communities.size(), b.communities.size()) << label;
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_EQ(a.communities[i].members, b.communities[i].members)
        << label << " community " << i;
    EXPECT_EQ(a.communities[i].influence, b.communities[i].influence)
        << label << " community " << i;
  }
}

TEST(CoreIndexTest, SolveIdenticalWithAndWithoutIndex) {
  const Graph g = WeightedChungLu(5);
  const CoreIndex index(g);

  SolveOptions indexed;
  indexed.core_index = &index;
  const SolveOptions direct;

  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(),
        AggregationSpec::Sum(), AggregationSpec::SumSurplus(0.5),
        AggregationSpec::Avg(), AggregationSpec::WeightDensity(1.0)}) {
    for (const VertexId k : {2u, 3u}) {
      for (const bool non_overlapping : {false, true}) {
        Query q;
        q.k = k;
        q.r = 4;
        q.non_overlapping = non_overlapping;
        q.aggregation = spec;
        const SearchResult with_index = Solve(g, q, indexed);
        const SearchResult without = Solve(g, q, direct);
        ExpectIdenticalResults(with_index, without,
                               AggregationName(spec.kind).c_str());
        EXPECT_EQ(ValidateResult(g, q, with_index), "");
      }
    }
  }
}

TEST(CoreIndexTest, SolveIdenticalAcrossExplicitSolvers) {
  const Graph g = TwoTrianglesAndK4();
  const CoreIndex index(g);

  Query q;
  q.k = 2;
  q.r = 3;
  q.aggregation = AggregationSpec::Sum();

  for (const SolverKind solver :
       {SolverKind::kNaive, SolverKind::kImproved, SolverKind::kApprox,
        SolverKind::kLocalGreedy, SolverKind::kLocalRandom}) {
    SolveOptions indexed;
    indexed.solver = solver;
    indexed.core_index = &index;
    SolveOptions direct;
    direct.solver = solver;
    ExpectIdenticalResults(Solve(g, q, indexed), Solve(g, q, direct),
                           SolverKindName(solver).c_str());
  }

  // Exact needs a size limit to stay tiny; min/max need their aggregation.
  q.size_limit = 4;
  SolveOptions exact_indexed;
  exact_indexed.solver = SolverKind::kExact;
  exact_indexed.core_index = &index;
  SolveOptions exact_direct;
  exact_direct.solver = SolverKind::kExact;
  ExpectIdenticalResults(Solve(g, q, exact_indexed),
                         Solve(g, q, exact_direct), "exact");

  q.size_limit = 0;
  q.aggregation = AggregationSpec::Min();
  SolveOptions min_indexed;
  min_indexed.solver = SolverKind::kMinPeel;
  min_indexed.core_index = &index;
  SolveOptions min_direct;
  min_direct.solver = SolverKind::kMinPeel;
  ExpectIdenticalResults(Solve(g, q, min_indexed), Solve(g, q, min_direct),
                         "min-peel");

  q.aggregation = AggregationSpec::Max();
  SolveOptions max_indexed;
  max_indexed.solver = SolverKind::kMaxComponents;
  max_indexed.core_index = &index;
  SolveOptions max_direct;
  max_direct.solver = SolverKind::kMaxComponents;
  ExpectIdenticalResults(Solve(g, q, max_indexed), Solve(g, q, max_direct),
                         "max-components");
}

}  // namespace
}  // namespace ticl
