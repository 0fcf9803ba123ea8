// Randomized property tests tying the whole system together. The central
// invariant is Theorem 3.3 / 3.6: the acyclicity-based checkers must agree
// with the ground truth, which for small random inputs we obtain from the
// materialization-based oracle (semi-oblivious chase with a generous atom
// budget — finite chases of these tiny inputs stay far below it, and
// infinite chases blow past it).

#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/is_chase_finite.h"
#include "core/simplification.h"
#include "core/dynamic_simplification.h"
#include "logic/printer.h"
#include "logic/parser.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"

namespace chase {
namespace {

constexpr uint64_t kOracleBudget = 100000;

struct RandomInput {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<Database> database;
  std::vector<Tgd> tgds;
};

// Builds a small random input: <= 4 predicates of arity <= 3, a handful of
// facts over 3 constants, and <= 5 TGDs of the requested class.
RandomInput MakeRandomInput(Rng& rng, TgdClass tclass) {
  RandomInput input;
  input.schema = std::make_unique<Schema>();
  const uint32_t num_preds = 1 + rng.Below(4);
  std::vector<PredId> preds;
  for (uint32_t i = 0; i < num_preds; ++i) {
    preds.push_back(input.schema
                        ->AddPredicate("p" + std::to_string(i),
                                       1 + rng.Below(3))
                        .value());
  }
  input.database = std::make_unique<Database>(input.schema.get());
  input.database->EnsureAnonymousDomain(3);
  const uint32_t num_facts = rng.Below(5);
  std::vector<uint32_t> tuple;
  for (uint32_t i = 0; i < num_facts; ++i) {
    const PredId pred = preds[rng.Below(preds.size())];
    tuple.clear();
    for (uint32_t j = 0; j < input.schema->Arity(pred); ++j) {
      tuple.push_back(static_cast<uint32_t>(rng.Below(3)));
    }
    EXPECT_TRUE(input.database->AddFact(pred, tuple).ok());
  }
  TgdGenParams params;
  params.ssize = num_preds;
  params.min_arity = 1;
  params.max_arity = 3;
  params.tsize = 1 + rng.Below(5);
  params.tclass = tclass;
  params.existential_percent = 35;
  params.seed = rng.Next();
  auto tgds = GenerateTgds(*input.schema, params);
  EXPECT_TRUE(tgds.ok()) << tgds.status();
  input.tgds = std::move(tgds).value();
  return input;
}

// Ground truth via bounded semi-oblivious chase. A chase that exhausts the
// first budget and contradicts the checker verdict is re-run with a 20x
// budget before being declared infinite, so a large-but-finite chase cannot
// fool the oracle at this input scale; when the checker already agrees the
// chase is infinite the retry proves nothing and is skipped.
std::optional<bool> ChaseOracle(const Database& db,
                                const std::vector<Tgd>& tgds,
                                bool checker_verdict) {
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_atoms = kOracleBudget;
  auto result = RunChase(db, tgds, options);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return std::nullopt;
  if (result->outcome == ChaseOutcome::kFixpoint) return true;
  if (!checker_verdict) return false;
  options.max_atoms = 20 * kOracleBudget;
  auto retry = RunChase(db, tgds, options);
  EXPECT_TRUE(retry.ok());
  if (!retry.ok()) return std::nullopt;
  return retry->outcome == ChaseOutcome::kFixpoint;
}

std::string Describe(const RandomInput& input) {
  std::string out = TgdsToString(*input.schema, input.tgds);
  std::ostringstream db;
  PrintDatabase(*input.database, db);
  return out + "---\n" + db.str();
}

TEST(PropertyTest, SlCheckerMatchesChaseOracle) {
  Rng rng(20240612);
  int infinite_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kSimpleLinear);
    auto verdict = IsChaseFiniteSL(*input.database, input.tgds);
    ASSERT_TRUE(verdict.ok()) << verdict.status();
    auto oracle = ChaseOracle(*input.database, input.tgds, verdict.value());
    ASSERT_TRUE(oracle.has_value());
    EXPECT_EQ(verdict.value(), *oracle)
        << "trial " << trial << "\n" << Describe(input);
    infinite_cases += !*oracle;
  }
  // The sample must exercise both verdicts to mean anything.
  EXPECT_GT(infinite_cases, 20);
  EXPECT_LT(infinite_cases, 380);
}

TEST(PropertyTest, LCheckerMatchesChaseOracle) {
  Rng rng(987654321);
  int infinite_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kLinear);
    auto verdict = IsChaseFiniteL(*input.database, input.tgds);
    ASSERT_TRUE(verdict.ok()) << verdict.status();
    auto oracle = ChaseOracle(*input.database, input.tgds, verdict.value());
    ASSERT_TRUE(oracle.has_value());
    EXPECT_EQ(verdict.value(), *oracle)
        << "trial " << trial << "\n" << Describe(input);
    infinite_cases += !*oracle;
  }
  EXPECT_GT(infinite_cases, 20);
  EXPECT_LT(infinite_cases, 380);
}

TEST(PropertyTest, LCheckerAgreesWithSlCheckerOnSimpleLinear) {
  Rng rng(555);
  for (int trial = 0; trial < 300; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kSimpleLinear);
    auto sl = IsChaseFiniteSL(*input.database, input.tgds);
    auto l = IsChaseFiniteL(*input.database, input.tgds);
    ASSERT_TRUE(sl.ok());
    ASSERT_TRUE(l.ok());
    EXPECT_EQ(sl.value(), l.value())
        << "trial " << trial << "\n" << Describe(input);
  }
}

TEST(PropertyTest, StaticAndDynamicLCheckersAgree) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kLinear);
    auto dynamic = IsChaseFiniteL(*input.database, input.tgds);
    auto static_check = IsChaseFiniteLStatic(*input.database, input.tgds);
    ASSERT_TRUE(dynamic.ok());
    ASSERT_TRUE(static_check.ok());
    EXPECT_EQ(dynamic.value(), static_check.value())
        << "trial " << trial << "\n" << Describe(input);
  }
}

TEST(PropertyTest, BothShapeFinderModesGiveSameVerdict) {
  // Both plans at every thread count against the serial scan: the verdict
  // and the work counters must match, since shape(D) is plan-independent
  // and both phases of the check are deterministic in their thread count.
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kLinear);
    LCheckStats serial;
    auto oracle = IsChaseFiniteL(*input.database, input.tgds, {}, &serial);
    ASSERT_TRUE(oracle.ok());
    for (storage::ShapeFinderMode mode :
         {storage::ShapeFinderMode::kScan, storage::ShapeFinderMode::kExists}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        LCheckOptions options{.shape_finder = mode, .threads = threads};
        LCheckStats stats;
        auto verdict =
            IsChaseFiniteL(*input.database, input.tgds, options, &stats);
        ASSERT_TRUE(verdict.ok());
        SCOPED_TRACE(testing::Message()
                     << "mode " << storage::ShapeFinderModeName(mode)
                     << ", threads " << threads << "\n"
                     << Describe(input));
        EXPECT_EQ(verdict.value(), oracle.value());
        EXPECT_EQ(stats.num_initial_shapes, serial.num_initial_shapes);
        EXPECT_EQ(stats.num_derived_shapes, serial.num_derived_shapes);
        EXPECT_EQ(stats.num_simplified_tgds, serial.num_simplified_tgds);
        EXPECT_EQ(stats.graph_nodes, serial.graph_nodes);
        EXPECT_EQ(stats.graph_edges, serial.graph_edges);
      }
    }
  }
}

TEST(PropertyTest, DynamicSimplificationSubsetOfStatic) {
  Rng rng(4242);
  for (int trial = 0; trial < 150; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kLinear);
    auto dynamic = DynamicSimplification(*input.database, input.tgds);
    auto full = StaticSimplification(*input.schema, input.tgds);
    ASSERT_TRUE(dynamic.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_LE(dynamic->tgds.size(), full->tgds.size()) << Describe(input);
    // Canonical containment check by printed form.
    std::set<std::string> static_rules;
    for (const Tgd& tgd : full->tgds) {
      static_rules.insert(ToString(full->shape_schema->schema(), tgd));
    }
    for (const Tgd& tgd : dynamic->tgds) {
      EXPECT_TRUE(static_rules.count(
          ToString(dynamic->shape_schema->schema(), tgd)))
          << Describe(input);
    }
  }
}

TEST(PropertyTest, FiniteChaseResultSatisfiesRules) {
  Rng rng(808);
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kLinear);
    ChaseOptions options;
    options.max_atoms = kOracleBudget;
    auto result = RunChase(*input.database, input.tgds, options);
    ASSERT_TRUE(result.ok());
    if (result->outcome != ChaseOutcome::kFixpoint) continue;
    EXPECT_TRUE(Satisfies(result->instance, input.tgds)) << Describe(input);
    ++checked;
  }
  EXPECT_GT(checked, 30);
}

TEST(PropertyTest, ChaseVariantSizeOrdering) {
  Rng rng(606);
  int checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kSimpleLinear);
    ChaseOptions options;
    options.max_atoms = 20000;
    options.variant = ChaseVariant::kOblivious;
    auto oblivious = RunChase(*input.database, input.tgds, options);
    ASSERT_TRUE(oblivious.ok());
    if (oblivious->outcome != ChaseOutcome::kFixpoint) continue;
    options.variant = ChaseVariant::kSemiOblivious;
    auto semi = RunChase(*input.database, input.tgds, options);
    options.variant = ChaseVariant::kRestricted;
    auto restricted = RunChase(*input.database, input.tgds, options);
    ASSERT_TRUE(semi.ok());
    ASSERT_TRUE(restricted.ok());
    ASSERT_EQ(semi->outcome, ChaseOutcome::kFixpoint);
    ASSERT_EQ(restricted->outcome, ChaseOutcome::kFixpoint);
    EXPECT_LE(semi->instance.NumAtoms(), oblivious->instance.NumAtoms());
    EXPECT_LE(restricted->instance.NumAtoms(), semi->instance.NumAtoms());
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(PropertyTest, ParserPrinterRoundTripOnGeneratedRules) {
  Rng rng(909);
  for (int trial = 0; trial < 50; ++trial) {
    RandomInput input = MakeRandomInput(rng, TgdClass::kLinear);
    const std::string text = TgdsToString(*input.schema, input.tgds);
    Schema fresh;
    auto reparsed = ParseTgds(text, &fresh);
    ASSERT_TRUE(reparsed.ok()) << text;
    ASSERT_EQ(reparsed->size(), input.tgds.size());
    const std::string reprinted = TgdsToString(fresh, reparsed.value());
    EXPECT_EQ(text, reprinted);
  }
}

}  // namespace
}  // namespace chase
