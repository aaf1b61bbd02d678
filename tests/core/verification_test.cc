#include "core/verification.h"

#include <initializer_list>

#include <gtest/gtest.h>

#include "testing/builders.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

TEST(ValidateCommunityTest, ValidCommunities) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_EQ(ValidateCommunity(g, Members({0, 1, 2}), 2), "");
  EXPECT_EQ(ValidateCommunity(g, Members({6, 7, 8, 9}), 3), "");
  EXPECT_EQ(ValidateCommunity(g, Members({0, 1, 2, 3, 4, 5}), 2), "");
}

TEST(ValidateCommunityTest, RejectsEmpty) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_NE(ValidateCommunity(g, {}, 1), "");
}

TEST(ValidateCommunityTest, RejectsUnsortedAndDuplicates) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_NE(ValidateCommunity(g, Members({2, 0, 1}), 2), "");
  EXPECT_NE(ValidateCommunity(g, Members({0, 1, 1, 2}), 2), "");
}

TEST(ValidateCommunityTest, RejectsOutOfRange) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_NE(ValidateCommunity(g, Members({0, 1, 99}), 1), "");
}

TEST(ValidateCommunityTest, RejectsLowDegree) {
  const Graph g = TwoTrianglesAndK4();
  // {0, 1} is an edge: fine at k = 1, not at k = 2.
  EXPECT_EQ(ValidateCommunity(g, Members({0, 1}), 1), "");
  const std::string problem = ValidateCommunity(g, Members({0, 1}), 2);
  EXPECT_NE(problem.find("induced degree"), std::string::npos);
}

TEST(ValidateCommunityTest, RejectsDisconnected) {
  const Graph g = TwoTrianglesAndK4();
  const std::string problem =
      ValidateCommunity(g, Members({0, 1, 2, 6, 7, 8}), 2);
  EXPECT_NE(problem.find("connected"), std::string::npos);
}

TEST(ValidateCommunityTest, EnforcesSizeLimit) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_NE(ValidateCommunity(g, Members({6, 7, 8, 9}), 2, 3), "");
  EXPECT_EQ(ValidateCommunity(g, Members({6, 7, 8, 9}), 2, 4), "");
  EXPECT_EQ(ValidateCommunity(g, Members({6, 7, 8, 9}), 2, 0), "");
}

class ValidateResultTest : public ::testing::Test {
 protected:
  ValidateResultTest() : g_(TwoTrianglesAndK4()) {
    query_.k = 2;
    query_.r = 3;
    query_.aggregation = AggregationSpec::Sum();
  }

  Community Make(std::initializer_list<VertexId> ids) {
    return MakeCommunity(g_, VertexList(ids), query_.aggregation);
  }

  Graph g_;
  Query query_;
};

TEST_F(ValidateResultTest, AcceptsWellFormedResult) {
  SearchResult result;
  result.communities.push_back(Make({6, 7, 8, 9}));  // 106
  result.communities.push_back(Make({0, 1, 2}));     // 60
  EXPECT_EQ(ValidateResult(g_, query_, result), "");
}

TEST_F(ValidateResultTest, RejectsTooManyCommunities) {
  SearchResult result;
  result.communities.push_back(Make({6, 7, 8, 9}));
  result.communities.push_back(Make({0, 1, 2}));
  result.communities.push_back(Make({3, 4, 5}));
  result.communities.push_back(Make({0, 1, 2, 3, 4, 5}));
  EXPECT_NE(ValidateResult(g_, query_, result), "");
}

TEST_F(ValidateResultTest, RejectsWrongOrder) {
  SearchResult result;
  result.communities.push_back(Make({0, 1, 2}));     // 60
  result.communities.push_back(Make({6, 7, 8, 9}));  // 106 — out of order
  const std::string problem = ValidateResult(g_, query_, result);
  EXPECT_NE(problem.find("sorted"), std::string::npos);
}

TEST_F(ValidateResultTest, RejectsDuplicates) {
  SearchResult result;
  result.communities.push_back(Make({0, 1, 2}));
  result.communities.push_back(Make({0, 1, 2}));
  const std::string problem = ValidateResult(g_, query_, result);
  EXPECT_NE(problem.find("duplicate"), std::string::npos);
}

TEST_F(ValidateResultTest, RejectsTamperedInfluence) {
  SearchResult result;
  result.communities.push_back(Make({0, 1, 2}));
  result.communities.front().influence = 999.0;
  const std::string problem = ValidateResult(g_, query_, result);
  EXPECT_NE(problem.find("influence"), std::string::npos);
}

TEST_F(ValidateResultTest, RejectsInvalidMemberCommunity) {
  SearchResult result;
  result.communities.push_back(Make({0, 1}));  // not a 2-core
  EXPECT_NE(ValidateResult(g_, query_, result), "");
}

TEST_F(ValidateResultTest, TonicOverlapDetected) {
  query_.non_overlapping = true;
  SearchResult result;
  result.communities.push_back(Make({0, 1, 2, 3, 4, 5}));  // 78
  result.communities.push_back(Make({0, 1, 2}));           // overlaps
  const std::string problem = ValidateResult(g_, query_, result);
  EXPECT_NE(problem.find("overlap"), std::string::npos);
}

TEST_F(ValidateResultTest, TonicDisjointAccepted) {
  query_.non_overlapping = true;
  SearchResult result;
  result.communities.push_back(Make({6, 7, 8, 9}));
  result.communities.push_back(Make({0, 1, 2}));
  result.communities.push_back(Make({3, 4, 5}));
  EXPECT_EQ(ValidateResult(g_, query_, result), "");
}

TEST_F(ValidateResultTest, EmptyResultIsValid) {
  EXPECT_EQ(ValidateResult(g_, query_, SearchResult{}), "");
}

TEST_F(ValidateResultTest, SizeLimitPropagates) {
  query_.size_limit = 3;
  SearchResult result;
  result.communities.push_back(Make({6, 7, 8, 9}));
  EXPECT_NE(ValidateResult(g_, query_, result), "");
}

}  // namespace
}  // namespace ticl
