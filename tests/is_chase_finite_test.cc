#include <gtest/gtest.h>

#include "core/is_chase_finite.h"
#include "logic/parser.h"

namespace chase {
namespace {

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

bool MustCheckSL(const Program& p, SlCheckStats* stats = nullptr) {
  auto result = IsChaseFiniteSL(*p.database, p.tgds, stats);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.value();
}

bool MustCheckL(const Program& p,
                storage::ShapeFinderMode mode =
                    storage::ShapeFinderMode::kScan,
                LCheckStats* stats = nullptr) {
  LCheckOptions options;
  options.shape_finder = mode;
  auto result = IsChaseFiniteL(*p.database, p.tgds, options, stats);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.value();
}

TEST(IsChaseFiniteSLTest, InfiniteCanonicalExample) {
  Program p = MustParse("e(a,b).\ne(X,Y) -> e(Y,Z).");
  EXPECT_FALSE(MustCheckSL(p));
}

TEST(IsChaseFiniteSLTest, FiniteWhenCycleUnsupported) {
  Program p = MustParse("q(a).\ne(X,Y) -> e(Y,Z).");
  EXPECT_TRUE(MustCheckSL(p));
}

TEST(IsChaseFiniteSLTest, FiniteAcyclicMapping) {
  Program p = MustParse(R"(
    emp(a). emp(b).
    emp(X) -> rep(X, Z).
    rep(X, Y) -> emp(X).
  )");
  EXPECT_TRUE(MustCheckSL(p));
}

TEST(IsChaseFiniteSLTest, InfiniteViaChain) {
  Program p = MustParse(R"(
    q(a).
    q(X) -> e(X,X).
    e(X,Y) -> e(Y,Z).
  )");
  EXPECT_FALSE(MustCheckSL(p));
}

TEST(IsChaseFiniteSLTest, EmptyRuleSetIsFinite) {
  Program p = MustParse("r(a,b).");
  EXPECT_TRUE(MustCheckSL(p));
}

TEST(IsChaseFiniteSLTest, StatsPopulated) {
  Program p = MustParse("e(a,b).\ne(X,Y) -> e(Y,Z).");
  SlCheckStats stats;
  EXPECT_FALSE(MustCheckSL(p, &stats));
  EXPECT_EQ(stats.graph_nodes, 2u);
  EXPECT_EQ(stats.graph_edges, 2u);
  EXPECT_EQ(stats.special_sccs, 1u);
  EXPECT_GE(stats.graph_ms, 0.0);
}

TEST(IsChaseFiniteSLTest, RejectsNonSimpleLinear) {
  Program repeated = MustParse("r(X,X) -> s(X).");
  EXPECT_FALSE(IsChaseFiniteSL(*repeated.database, repeated.tgds).ok());
  Program multi = MustParse("r(X), s(X) -> t(X).");
  EXPECT_FALSE(IsChaseFiniteSL(*multi.database, multi.tgds).ok());
}

TEST(IsChaseFiniteSLTest, RejectsEmptyFrontier) {
  Program p = MustParse("r(X) -> s(Z).");
  auto result = IsChaseFiniteSL(*p.database, p.tgds);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(IsChaseFiniteLTest, PaperExample34IsFinite) {
  // Example 3.4: finite although Σ is not D-weakly-acyclic; the simplified
  // check must detect finiteness.
  Program p = MustParse("r(a,b).\nr(X,X) -> r(Z,X).");
  EXPECT_TRUE(MustCheckL(p));
}

TEST(IsChaseFiniteLTest, Example34VariantWithDiagonalFact) {
  // With R(a,a) in the database the rule fires and feeds itself forever:
  // R(a,a) gives R(z,a), whose shape R_[1,2] re-triggers... but only the
  // diagonal shape matches R(x,x), so the chase is finite.
  Program p = MustParse("r(a,a).\nr(X,X) -> r(Z,X).");
  EXPECT_TRUE(MustCheckL(p));
}

TEST(IsChaseFiniteLTest, InfiniteNonSimpleRecursion) {
  // r(x,x) -> r(x,z): the produced atom r(a,z) has shape [1,2]; add a rule
  // that squares it back to the diagonal.
  Program p = MustParse(R"(
    r(a,a).
    r(X,X) -> r(X,Z).
    r(X,Y) -> r(Y,Y).
  )");
  EXPECT_FALSE(MustCheckL(p));
}

TEST(IsChaseFiniteLTest, AgreesWithSLCheckerOnSimpleLinearInput) {
  const char* programs[] = {
      "e(a,b).\ne(X,Y) -> e(Y,Z).",
      "q(a).\ne(X,Y) -> e(Y,Z).",
      "emp(a).\nemp(X) -> rep(X, Z).\nrep(X, Y) -> emp(X).",
      "q(a).\nq(X) -> e(X,X).\ne(X,Y) -> e(Y,Z).",
  };
  for (const char* text : programs) {
    Program p = MustParse(text);
    EXPECT_EQ(MustCheckL(p), MustCheckSL(p)) << text;
  }
}

TEST(IsChaseFiniteLTest, BothShapeFinderModesAgree) {
  Program p = MustParse(R"(
    r(a,a). r(a,b).
    r(X,X) -> r(X,Z).
    r(X,Y) -> r(Y,Y).
  )");
  EXPECT_EQ(MustCheckL(p, storage::ShapeFinderMode::kScan),
            MustCheckL(p, storage::ShapeFinderMode::kExists));
}

TEST(IsChaseFiniteLTest, StatsPopulated) {
  Program p = MustParse("r(a,a). r(a,b).\nr(X,Y) -> r(Y,Z).");
  LCheckStats stats;
  MustCheckL(p, storage::ShapeFinderMode::kScan, &stats);
  EXPECT_EQ(stats.num_initial_shapes, 2u);
  EXPECT_GE(stats.num_derived_shapes, 2u);
  EXPECT_GT(stats.num_simplified_tgds, 0u);
  EXPECT_GT(stats.graph_nodes, 0u);
  EXPECT_EQ(stats.access.relations_loaded, 1u);
}

TEST(IsChaseFiniteLTest, RejectsNonLinearAndEmptyFrontier) {
  Program multi = MustParse("r(X), s(X) -> t(X).");
  EXPECT_FALSE(IsChaseFiniteL(*multi.database, multi.tgds).ok());
  Program empty_frontier = MustParse("r(X) -> s(Z).");
  EXPECT_FALSE(
      IsChaseFiniteL(*empty_frontier.database, empty_frontier.tgds).ok());
}

TEST(IsChaseFiniteLStaticTest, MatchesDynamicOnExamples) {
  const char* programs[] = {
      "r(a,b).\nr(X,X) -> r(Z,X).",
      "r(a,a).\nr(X,X) -> r(X,Z).\nr(X,Y) -> r(Y,Y).",
      "e(a,b).\ne(X,Y) -> e(Y,Z).",
      "q(a).\ne(X,Y) -> e(Y,Z).",
      "r(a,a). r(a,b).\nr(X,Y) -> r(Y,X).",
  };
  for (const char* text : programs) {
    Program p = MustParse(text);
    auto via_static = IsChaseFiniteLStatic(*p.database, p.tgds);
    ASSERT_TRUE(via_static.ok()) << via_static.status();
    EXPECT_EQ(via_static.value(), MustCheckL(p)) << text;
  }
}

TEST(IsChaseFiniteLStaticTest, HonorsCap) {
  Program p = MustParse("r(A,B,C,D,E,F,G,H) -> r(A,B,C,D,E,F,G,Z).");
  auto result = IsChaseFiniteLStatic(*p.database, p.tgds, /*max_simplified=*/5);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace chase
