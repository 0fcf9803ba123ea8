#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/dynamic_simplification.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/printer.h"

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

// D' has D's shapes but other tuples: D's rows of each relation in a
// shuffled order, its constants renamed by a permutation of the domain,
// and, per relation, one copy of every other row over constants no row of
// D uses (a renaming that is injective on the row, so the copy has the
// row's shape).
std::unique_ptr<Database> SameShapesOtherContent(const Database& db,
                                                 uint64_t domain, Rng* rng) {
  std::vector<uint32_t> rename(domain);
  for (uint32_t c = 0; c < domain; ++c) rename[c] = c;
  for (uint32_t c = domain; c > 1; --c) {
    std::swap(rename[c - 1], rename[rng->Below(c)]);
  }
  auto out = std::make_unique<Database>(&db.schema());
  uint32_t fresh = static_cast<uint32_t>(domain);
  for (PredId pred = 0; pred < db.schema().NumPredicates(); ++pred) {
    std::vector<size_t> rows(db.NumTuples(pred));
    for (size_t row = 0; row < rows.size(); ++row) rows[row] = row;
    for (size_t n = rows.size(); n > 1; --n) {
      std::swap(rows[n - 1], rows[rng->Below(n)]);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<uint32_t> tuple;
      for (uint32_t c : db.Tuple(pred, rows[i])) tuple.push_back(rename[c]);
      EXPECT_TRUE(out->AddFact(pred, tuple).ok());
      if (i % 2 != 0) continue;
      for (uint32_t& c : tuple) c += fresh;
      EXPECT_TRUE(out->AddFact(pred, tuple).ok());
      fresh += static_cast<uint32_t>(domain);
    }
  }
  out->EnsureAnonymousDomain(fresh);
  return out;
}

struct LOutcome {
  bool finite = false;
  size_t initial_shapes = 0;
  size_t simplified_tgds = 0;
  std::vector<std::string> printed;
};

LOutcome CheckL(const Database& db, const std::vector<Tgd>& tgds,
                storage::ShapeFinderMode mode) {
  LOutcome outcome;
  LCheckStats stats;
  auto finite = IsChaseFiniteL(db, tgds, {.shape_finder = mode}, &stats);
  EXPECT_TRUE(finite.ok()) << finite.status();
  outcome.finite = finite.ok() && *finite;
  outcome.initial_shapes = stats.num_initial_shapes;
  outcome.simplified_tgds = stats.num_simplified_tgds;
  auto simplified = DynamicSimplification(db, tgds, mode);
  EXPECT_TRUE(simplified.ok()) << simplified.status();
  if (simplified.ok()) {
    for (const Tgd& tgd : simplified->tgds) {
      outcome.printed.push_back(
          ToString(simplified->shape_schema->schema(), tgd));
    }
  }
  return outcome;
}

TEST(IsChaseFiniteLTest, ResultDependsOnlyOnShapeOfD) {
  // The linear check reads D only through shape(D) (Lemma 4.5): a database
  // with the same shapes but other size and content must give the same
  // verdict, counters and simplified TGDs, under both shape plans.
  Rng rng(20261020);
  bool saw_finite = false, saw_infinite = false;
  for (int trial = 0; trial < 8; ++trial) {
    DataGenParams data_params;
    data_params.preds = 6;
    data_params.min_arity = 1;
    data_params.max_arity = 4;
    data_params.dsize = 64;
    data_params.rsize = 40;
    data_params.seed = rng.Next();
    auto data = GenerateData(data_params);
    ASSERT_TRUE(data.ok()) << data.status();
    TgdGenParams tgd_params;
    tgd_params.ssize = data_params.preds;
    tgd_params.max_arity = data_params.max_arity;
    tgd_params.tsize = 12;
    tgd_params.tclass = TgdClass::kLinear;
    tgd_params.existential_percent = 20;
    tgd_params.seed = rng.Next();
    auto tgds = GenerateTgds(*data->schema, tgd_params);
    ASSERT_TRUE(tgds.ok()) << tgds.status();
    std::unique_ptr<Database> other =
        SameShapesOtherContent(*data->database, data_params.dsize, &rng);
    ASSERT_GT(other->TotalFacts(), data->database->TotalFacts());

    for (storage::ShapeFinderMode mode :
         {storage::ShapeFinderMode::kScan, storage::ShapeFinderMode::kExists}) {
      const std::string label = "trial " + std::to_string(trial) + ", " +
                                storage::ShapeFinderModeName(mode);
      const LOutcome base = CheckL(*data->database, *tgds, mode);
      const LOutcome moved = CheckL(*other, *tgds, mode);
      EXPECT_EQ(moved.finite, base.finite) << label;
      EXPECT_EQ(moved.initial_shapes, base.initial_shapes) << label;
      EXPECT_EQ(moved.simplified_tgds, base.simplified_tgds) << label;
      EXPECT_EQ(moved.printed, base.printed) << label;
      (base.finite ? saw_finite : saw_infinite) = true;
    }
  }
  // Both verdicts occur, so the equalities above are not all vacuous.
  EXPECT_TRUE(saw_finite);
  EXPECT_TRUE(saw_infinite);
}

}  // namespace
}  // namespace chase
