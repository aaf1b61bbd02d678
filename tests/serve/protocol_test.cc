// The wire protocol is the trust boundary of the network front end: a
// TCP listener cannot assume well-formed input the way the batch pipe
// could. These tests are deliberately table-driven — every class of
// malformed line the parser must reject lives in one place, and adding a
// new attack is one row.

#include "serve/protocol.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregation.h"
#include "core/community.h"
#include "core/result.h"
#include "util/rng.h"

namespace ticl {
namespace {

// -- Well-formed lines ------------------------------------------------------

TEST(ParseQueryLineTest, FullQuery) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(
      R"({"id": "q1", "k": 4, "r": 5, "s": 20, "f": "avg", "non_overlapping": true})",
      7, &query, &id_json, &error))
      << error;
  EXPECT_EQ(id_json, "\"q1\"");  // raw token: quotes preserved
  EXPECT_EQ(query.k, 4u);
  EXPECT_EQ(query.r, 5u);
  EXPECT_EQ(query.size_limit, 20u);
  EXPECT_TRUE(query.non_overlapping);
  EXPECT_EQ(query.aggregation.kind, Aggregation::kAvg);
}

TEST(ParseQueryLineTest, DefaultsWhenFieldsAbsent) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"k": 2})", 3, &query, &id_json, &error));
  EXPECT_EQ(id_json, "3");  // synthesized from the line number
  EXPECT_EQ(query.k, 2u);
  EXPECT_EQ(query.r, 1u);
  EXPECT_EQ(query.size_limit, 0u);
  EXPECT_FALSE(query.non_overlapping);
  EXPECT_EQ(query.aggregation.kind, Aggregation::kSum);
}

TEST(ParseQueryLineTest, NumericAndBoolIds) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"id": 42, "k": 2})", 1, &query, &id_json,
                             &error));
  EXPECT_EQ(id_json, "42");
  ASSERT_TRUE(ParseQueryLine(R"({"id": -3.5, "k": 2})", 1, &query, &id_json,
                             &error));
  EXPECT_EQ(id_json, "-3.5");
}

TEST(ParseQueryLineTest, CompositeOrNullIdSynthesized) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"id": [1, 2], "k": 2})", 9, &query,
                             &id_json, &error));
  EXPECT_EQ(id_json, "9");
  ASSERT_TRUE(ParseQueryLine(R"({"id": null, "k": 2})", 11, &query, &id_json,
                             &error));
  EXPECT_EQ(id_json, "11");
}

TEST(ParseQueryLineTest, UnknownFieldsIgnoredEvenComposite) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(
      R"({"k": 3, "future_field": {"nested": [1, "a}b", {}]}, "r": 2})", 1,
      &query, &id_json, &error))
      << error;
  EXPECT_EQ(query.k, 3u);
  EXPECT_EQ(query.r, 2u);
}

TEST(ParseQueryLineTest, SumSurplusTakesAlpha) {
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine(R"({"f": "sum-surplus", "alpha": 0.5, "k": 2})",
                             1, &query, &id_json, &error));
  EXPECT_EQ(query.aggregation.kind, Aggregation::kSumSurplus);
  EXPECT_DOUBLE_EQ(query.aggregation.alpha, 0.5);
}

TEST(ParseQueryLineTest, UnicodeEscapeInString) {
  // The f value spells its leading 's' as a backslash-u escape (0x73);
  // escapes must be resolved before the aggregation lookup.
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(ParseQueryLine("{\"f\": \"\\u0073um\", \"k\": 2}", 1, &query,
                             &id_json, &error))
      << error;
  EXPECT_EQ(query.aggregation.kind, Aggregation::kSum);
}

TEST(ParseQueryLineTest, IntegralFloatAccepted) {
  // JSON has one number type; 4.0 is an integer by value.
  Query query;
  std::string id_json;
  std::string error;
  ASSERT_TRUE(
      ParseQueryLine(R"({"k": 4.0, "r": 2e1})", 1, &query, &id_json, &error))
      << error;
  EXPECT_EQ(query.k, 4u);
  EXPECT_EQ(query.r, 20u);
}

// -- Malformed lines (the hardening table) ----------------------------------

struct MalformedCase {
  const char* name;
  const char* line;
  /// Substring expected in the parse error.
  const char* error_fragment;
};

class MalformedLineTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedLineTest, Rejected) {
  const MalformedCase& c = GetParam();
  Query query;
  std::string id_json;
  std::string error;
  EXPECT_FALSE(ParseQueryLine(c.line, 5, &query, &id_json, &error))
      << c.name << ": accepted " << c.line;
  EXPECT_NE(error.find(c.error_fragment), std::string::npos)
      << c.name << ": error was \"" << error << "\", expected fragment \""
      << c.error_fragment << "\"";
  EXPECT_FALSE(id_json.empty()) << c.name;  // error replies need an id
}

INSTANTIATE_TEST_SUITE_P(
    Table, MalformedLineTest,
    ::testing::Values(
        MalformedCase{"empty", "", "expected '{'"},
        MalformedCase{"not_an_object", R"([1, 2, 3])", "expected '{'"},
        MalformedCase{"bare_garbage", "hello", "expected '{'"},
        MalformedCase{"unterminated_object", R"({"k": 2)", "expected ','"},
        MalformedCase{"unterminated_string", R"({"f": "sum)",
                      "unterminated string"},
        MalformedCase{"unterminated_string_id", R"({"id": "q1)",
                      "unterminated string"},
        MalformedCase{"unterminated_escape", "{\"f\": \"sum\\",
                      "unterminated string"},
        MalformedCase{"control_char_in_string", "{\"f\": \"su\tm\"}",
                      "unescaped control character"},
        MalformedCase{"invalid_escape", R"({"f": "\q"})", "invalid escape"},
        MalformedCase{"truncated_unicode_escape", R"({"f": "\u00"})",
                      "escape"},
        MalformedCase{"lone_surrogate", R"({"f": "\ud800"})",
                      "lone surrogate"},
        MalformedCase{"duplicate_key", R"({"k": 2, "k": 3})",
                      "duplicate key \"k\""},
        MalformedCase{"duplicate_id", R"({"id": 1, "id": 2, "k": 2})",
                      "duplicate key \"id\""},
        MalformedCase{"duplicate_unknown_key", R"({"x": 1, "x": 1})",
                      "duplicate key \"x\""},
        MalformedCase{"k_string", R"({"k": "four"})", "\"k\" must be a number"},
        MalformedCase{"k_quoted_number", R"({"k": "4"})",
                      "\"k\" must be a number"},
        MalformedCase{"k_bool", R"({"k": true})", "\"k\" must be a number"},
        MalformedCase{"k_fractional", R"({"k": 4.5})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"k_negative", R"({"k": -1})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"k_too_large", R"({"k": 4294967296})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"r_huge_exponent", R"({"r": 1e300})",
                      "integer in [0, 4294967295]"},
        MalformedCase{"s_composite", R"({"s": [20]})", "must be a number"},
        MalformedCase{"non_overlapping_string",
                      R"({"non_overlapping": "yes"})",
                      "\"non_overlapping\" must be true or false"},
        MalformedCase{"alpha_string", R"({"f": "sum-surplus", "alpha": "a"})",
                      "\"alpha\" must be a finite number"},
        MalformedCase{"f_number", R"({"f": 7})", "\"f\" must be a string"},
        MalformedCase{"unknown_aggregation", R"({"f": "median"})",
                      "unknown aggregation: median"},
        MalformedCase{"missing_colon", R"({"k" 2})", "expected ':'"},
        MalformedCase{"missing_comma", R"({"k": 2 "r": 3})",
                      "expected ',' or '}'"},
        MalformedCase{"unquoted_key", R"({k: 2})", "expected a quoted key"},
        MalformedCase{"trailing_garbage", R"({"k": 2} tail)",
                      "trailing garbage"},
        MalformedCase{"second_object", R"({"k": 2}{"k": 3})",
                      "trailing garbage"},
        MalformedCase{"leading_zero_number", R"({"k": 007})",
                      "expected ',' or '}'"},
        MalformedCase{"hex_number", R"({"k": 0x10})", "expected ',' or '}'"},
        MalformedCase{"infinity_number", R"({"k": inf})", "malformed value"},
        MalformedCase{"mismatched_brackets", R"({"x": [1, 2}})",
                      "mismatched brackets"},
        MalformedCase{"unterminated_composite", R"({"x": [1, 2)",
                      "unterminated array or object"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

TEST(ParseQueryLineTest, OversizedLineRejected) {
  std::string line = R"({"id": ")" + std::string(kMaxRequestLineBytes, 'x') +
                     R"(", "k": 2})";
  Query query;
  std::string id_json;
  std::string error;
  EXPECT_FALSE(ParseQueryLine(line, 2, &query, &id_json, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  EXPECT_EQ(id_json, "2");
}

TEST(ParseQueryLineTest, AdminLineRejectedOnBatchFrontEnd) {
  Query query;
  std::string id_json;
  std::string error;
  EXPECT_FALSE(ParseQueryLine(R"({"id": 1, "admin": "stats"})", 1, &query,
                              &id_json, &error));
  EXPECT_NE(error.find("admin commands are not supported"),
            std::string::npos)
      << error;
  EXPECT_EQ(id_json, "1");
}

// -- Admin requests ---------------------------------------------------------

TEST(ParseRequestLineTest, AdminApplyDelta) {
  ParsedRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"id": "a1", "admin": "apply_delta", "path": "g.d1.snap"})", 1,
      &request, &error))
      << error;
  EXPECT_EQ(request.kind, ParsedRequest::Kind::kAdmin);
  EXPECT_EQ(request.admin_verb, "apply_delta");
  EXPECT_EQ(request.admin_path, "g.d1.snap");
  EXPECT_EQ(request.id_json, "\"a1\"");
}

TEST(ParseRequestLineTest, AdminVerbsWithoutPath) {
  for (const char* verb : {"stats", "drain", "ping"}) {
    ParsedRequest request;
    std::string error;
    const std::string line =
        std::string(R"({"admin": ")") + verb + R"("})";
    ASSERT_TRUE(ParseRequestLine(line, 1, &request, &error)) << error;
    EXPECT_EQ(request.kind, ParsedRequest::Kind::kAdmin);
    EXPECT_EQ(request.admin_verb, verb);
  }
}

TEST(ParseRequestLineTest, AdminErrors) {
  ParsedRequest request;
  std::string error;
  EXPECT_FALSE(
      ParseRequestLine(R"({"admin": "reboot"})", 1, &request, &error));
  EXPECT_NE(error.find("unknown admin command"), std::string::npos) << error;

  EXPECT_FALSE(
      ParseRequestLine(R"({"admin": "apply_delta"})", 1, &request, &error));
  EXPECT_NE(error.find("path"), std::string::npos) << error;

  EXPECT_FALSE(ParseRequestLine(R"({"admin": 7})", 1, &request, &error));
  EXPECT_NE(error.find("\"admin\" must be a string"), std::string::npos)
      << error;
}

TEST(ParseRequestLineTest, QueryLineParsesAsQueryKind) {
  ParsedRequest request;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(R"({"id": 1, "k": 3, "r": 2})", 1, &request,
                               &error));
  EXPECT_EQ(request.kind, ParsedRequest::Kind::kQuery);
  EXPECT_EQ(request.query.k, 3u);
}

// -- Formatting -------------------------------------------------------------

SearchResult TwoCommunityResult() {
  SearchResult result;
  Community a;
  a.influence = 42.0;
  a.members = {1, 2, 3};
  Community b;
  b.influence = 0.125;
  b.members = {7};
  result.communities = {a, b};
  result.stats.elapsed_seconds = 0.012345;
  return result;
}

TEST(FormatTest, ResultLineExactBytes) {
  Query query;
  query.k = 4;
  query.r = 5;
  const std::string line =
      FormatResultLine("\"q1\"", query, TwoCommunityResult(), false);
  EXPECT_EQ(line,
            "{\"id\": \"q1\", \"query\": \"" + QueryToString(query) +
                "\", \"cached\": false, \"solve_seconds\": 0.012345, "
            "\"communities\": [{\"influence\": 42, \"members\": [1, 2, 3]}, "
            "{\"influence\": 0.125, \"members\": [7]}]}\n");
}

TEST(FormatTest, CommunitiesJsonMatchesResultLineSuffix) {
  Query query;
  const SearchResult result = TwoCommunityResult();
  const std::string line = FormatResultLine("1", query, result, true);
  const std::string communities = FormatCommunitiesJson(result);
  const std::string suffix = "\"communities\": " + communities + "}\n";
  ASSERT_GE(line.size(), suffix.size());
  EXPECT_EQ(line.substr(line.size() - suffix.size()), suffix);
}

TEST(FormatTest, EmptyResult) {
  Query query;
  const SearchResult empty;
  EXPECT_EQ(FormatCommunitiesJson(empty), "[]");
}

// A cached reply did not solve: it reports 0 seconds, not the original
// solve's time, and carries the same communities bytes.
TEST(FormatTest, CachedResultLineReportsZeroSolveSeconds) {
  Query query;
  const SearchResult result = TwoCommunityResult();
  const std::string line = FormatResultLine("1", query, result, true);
  EXPECT_NE(line.find("\"cached\": true, \"solve_seconds\": 0.000000, "),
            std::string::npos)
      << line;
}

// The SearchResult overload is a wrapper: both overloads emit the same
// line for the same bytes and seconds.
TEST(FormatTest, BytesOverloadMatchesResultOverload) {
  Query query;
  query.k = 3;
  const SearchResult result = TwoCommunityResult();
  EXPECT_EQ(FormatResultLine("\"x\"", query, FormatCommunitiesJson(result),
                             0.012345, false),
            FormatResultLine("\"x\"", query, result, false));
  EXPECT_EQ(FormatResultLine("\"x\"", query, FormatCommunitiesJson(result),
                             0.0, true),
            FormatResultLine("\"x\"", query, result, true));
}

TEST(FormatTest, SolveSecondsPrintedAsFixedSix) {
  Query query;
  const SearchResult empty;
  for (const double seconds : {0.0, 1e-7, 5e-7, 0.0000015, 0.1234565, 1.0,
                               12.5, 3600.25, 1e12}) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "\"solve_seconds\": %.6f, ",
                  seconds);
    const std::string line = FormatResultLine("1", query, "[]", seconds, false);
    EXPECT_NE(line.find(expected), std::string::npos) << line;
  }
}

// -- Byte identity with the snprintf formatter ------------------------------

// The formatter FormatCommunitiesJson replaced, verbatim: %.17g
// influences and %u ids through snprintf. The to_chars formatter must
// produce exactly these bytes, since clients compare answers byte for
// byte.
std::string SnprintfCommunitiesJson(const SearchResult& result) {
  std::string out = "[";
  char buffer[64];
  for (std::size_t i = 0; i < result.communities.size(); ++i) {
    const Community& c = result.communities[i];
    if (i != 0) out += ", ";
    std::snprintf(buffer, sizeof(buffer), "{\"influence\": %.17g, ",
                  c.influence);
    out += buffer;
    out += "\"members\": [";
    for (std::size_t j = 0; j < c.members.size(); ++j) {
      if (j != 0) out += ", ";
      std::snprintf(buffer, sizeof(buffer), "%u", c.members[j]);
      out += buffer;
    }
    out += "]}";
  }
  out += "]";
  return out;
}

SearchResult SingleCommunity(double influence, VertexList members) {
  SearchResult result;
  Community c;
  c.influence = influence;
  c.members = std::move(members);
  result.communities.push_back(std::move(c));
  return result;
}

TEST(FormatIdentityTest, RandomBitPatternInfluences) {
  Rng rng(20221);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng.Next();
    double influence;
    std::memcpy(&influence, &bits, sizeof(influence));
    const SearchResult result = SingleCommunity(influence, {1});
    const std::string expected = SnprintfCommunitiesJson(result);
    const std::string actual = FormatCommunitiesJson(result);
    if (actual != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": " << actual
                    << " != " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FormatIdentityTest, SpecialInfluences) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      kInf, -kInf, 0.0, -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      0.1, 1.0 / 3.0, 2.0 / 3.0, 0.125, 1e-4, 9.9999999999999995e-5, 1e-5,
      1e16, 1e17, 9.999999999999999e16, 123456789012345678.0,
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0)};
  // Integers as doubles, including the precision-17 switch to exponent
  // notation and the 2^53 limit of exact integers.
  for (double v = 1.0; v < 1e22; v *= 10.0) {
    values.push_back(v);
    values.push_back(v - 1.0);
    values.push_back(-v);
  }
  for (const double v : {42.0, 255.0, 65536.0, 4294967295.0,
                         9007199254740991.0, 9007199254740992.0,
                         9007199254740993.0}) {
    values.push_back(v);
  }
  for (const double v : values) {
    const SearchResult result = SingleCommunity(v, {0});
    EXPECT_EQ(FormatCommunitiesJson(result), SnprintfCommunitiesJson(result))
        << "influence " << v;
  }
}

TEST(FormatIdentityTest, IdsAcrossEveryDigitCount) {
  VertexList ids = {0, std::numeric_limits<VertexId>::max()};
  for (std::uint64_t p = 1; p <= 1000000000ull; p *= 10) {
    ids.push_back(static_cast<VertexId>(p - 1));
    ids.push_back(static_cast<VertexId>(p));
    ids.push_back(static_cast<VertexId>(p + 1));
  }
  const SearchResult result = SingleCommunity(1.5, ids);
  EXPECT_EQ(FormatCommunitiesJson(result), SnprintfCommunitiesJson(result));
}

TEST(FormatIdentityTest, EmptyShapes) {
  const SearchResult empty;
  EXPECT_EQ(FormatCommunitiesJson(empty), SnprintfCommunitiesJson(empty));
  SearchResult no_members = SingleCommunity(2.0, {});
  no_members.communities.push_back(no_members.communities.front());
  EXPECT_EQ(FormatCommunitiesJson(no_members),
            SnprintfCommunitiesJson(no_members));
  EXPECT_EQ(FormatCommunitiesJson(no_members),
            "[{\"influence\": 2, \"members\": []}, "
            "{\"influence\": 2, \"members\": []}]");
}

TEST(FormatIdentityTest, RandomResults) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    SearchResult result;
    const auto communities = rng.NextBounded(6);
    for (std::uint64_t i = 0; i < communities; ++i) {
      Community c;
      c.influence = rng.NextGaussian() * std::pow(10.0, rng.NextInRange(-8, 8));
      const auto size = rng.NextBounded(40);
      for (std::uint64_t j = 0; j < size; ++j) {
        // Mostly small ids, some spanning the whole 32-bit range.
        const std::uint64_t id = rng.NextBernoulli(0.8)
                                     ? rng.NextBounded(100000)
                                     : rng.Next() & 0xFFFFFFFFull;
        c.members.push_back(static_cast<VertexId>(id));
      }
      result.communities.push_back(std::move(c));
    }
    ASSERT_EQ(FormatCommunitiesJson(result), SnprintfCommunitiesJson(result))
        << "trial " << trial;
  }
}

TEST(FormatTest, ErrorLineEscapesMessage) {
  const std::string line =
      FormatErrorLine("7", "bad \"value\"\nline two", kErrorKindParse);
  EXPECT_EQ(line,
            "{\"id\": 7, \"error\": \"bad \\\"value\\\"\\nline two\", "
            "\"kind\": \"parse\"}\n");
}

TEST(FormatTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
}

// The parser accepts what the formatter emits — a round-trip guard for
// the shared-protocol invariant.
TEST(FormatTest, ErrorLineReparses) {
  const std::string line = FormatErrorLine("\"id with spaces\"",
                                           "message", kErrorKindInvalid);
  ParsedRequest request;
  std::string error;
  // Error lines are replies, not requests, but they are flat JSON objects
  // with string values — the scanner must not choke on its own output.
  // (They parse as a query with all fields defaulted: "error"/"kind" are
  // unknown request fields.)
  ASSERT_TRUE(ParseRequestLine(line.substr(0, line.size() - 1), 1, &request,
                               &error))
      << error;
  EXPECT_EQ(request.id_json, "\"id with spaces\"");
}

}  // namespace
}  // namespace ticl
