#include <string>

#include <gtest/gtest.h>

#include "acyclicity/joint_acyclicity.h"
#include "acyclicity/mfa.h"
#include "acyclicity/super_weak_acyclicity.h"
#include "acyclicity/uniform.h"
#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/weak_acyclicity.h"
#include "gen/tgd_generator.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace chase {
namespace acyclicity {
namespace {

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

bool Ja(const Program& p) {
  return IsJointlyAcyclic(*p.schema, p.tgds);
}
bool Swa(const Program& p) {
  return IsSuperWeaklyAcyclic(*p.schema, p.tgds);
}
bool Mfa(const Program& p) {
  auto verdict = IsModelFaithfulAcyclic(*p.schema, p.tgds);
  EXPECT_TRUE(verdict.ok()) << verdict.status();
  return verdict.value();
}
bool Wa(const Program& p) { return IsWeaklyAcyclic(*p.schema, p.tgds); }

// ---------------------------------------------------------------------------
// Joint acyclicity

TEST(JointAcyclicityTest, EmptyRuleSetIsAcyclic) {
  Program p = MustParse("r(a,b).");
  EXPECT_TRUE(Ja(p));
}

TEST(JointAcyclicityTest, NoExistentialsIsAcyclic) {
  Program p = MustParse("r(X,Y) -> s(Y,X).\ns(X,Y) -> r(X,Y).");
  EXPECT_TRUE(Ja(p));
}

TEST(JointAcyclicityTest, SelfFeedingRuleIsCyclic) {
  // R(x,y) → ∃z R(y,z): the invented value reaches position R2, from where
  // the rule fires again.
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  EXPECT_FALSE(Ja(p));
}

TEST(JointAcyclicityTest, AcyclicChainIsAcyclic) {
  Program p = MustParse("a(X) -> b(X,Z).\nb(X,Y) -> c(Y).");
  EXPECT_TRUE(Ja(p));
}

TEST(JointAcyclicityTest, TwoRuleCycleIsCyclic) {
  Program p = MustParse("a(X) -> b(X,Z).\nb(X,Y) -> a(Y).");
  EXPECT_FALSE(Ja(p));
}

TEST(JointAcyclicityTest, SeparatedFromWeakAcyclicityByPartialCoverage) {
  // The classic gap: weak acyclicity sees the special edge A1 → R2 on a
  // cycle, but the invented value can never cover *both* body occurrences
  // of y in the multi-atom rule, so no new invention is triggered.
  Program p = MustParse("a(X) -> r(X,Z).\nr(X,Y), r(Y,X) -> a(Y).");
  EXPECT_FALSE(Wa(p));
  EXPECT_TRUE(Ja(p));
  // The semi-oblivious chase indeed terminates from the critical-style
  // database {a(c), r(c,c)}.
  Program with_data =
      MustParse("a(c). r(c,c).\na(X) -> r(X,Z).\nr(X,Y), r(Y,X) -> a(Y).");
  ChaseOptions options;
  options.max_atoms = 10'000;
  auto result = RunChase(*with_data.database, with_data.tgds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
}

TEST(JointAcyclicityTest, WeakAcyclicityImpliesJointOnExamples) {
  // Weakly acyclic data-exchange-style mapping.
  Program p = MustParse(R"(
    emp(X) -> works(X, Z).
    works(X, Y) -> dept(Y).
    dept(X) -> hasMgr(X, Z).
    hasMgr(X, Y) -> mgr(Y).
  )");
  EXPECT_TRUE(Wa(p));
  EXPECT_TRUE(Ja(p));
}

// ---------------------------------------------------------------------------
// Super-weak acyclicity

TEST(SuperWeakAcyclicityTest, EmptyAndDatalogAreAcyclic) {
  Program p = MustParse("r(X,Y) -> s(Y,X).\ns(X,Y) -> r(X,Y).");
  EXPECT_TRUE(Swa(p));
}

TEST(SuperWeakAcyclicityTest, SelfFeedingRuleIsCyclic) {
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  EXPECT_FALSE(Swa(p));
}

TEST(SuperWeakAcyclicityTest, OccursCheckAlsoVisibleToJointAcyclicity) {
  // σ1 invents z at s2; σ2 reads s(u,u). The skolemized head s(x, f(x))
  // cannot unify with s(u,u) (occurs check: u = x = f(x)), so SWA sees no
  // feedback. Joint acyclicity reaches the same verdict here through its
  // coverage condition: position s1 never joins Move(z).
  Program p = MustParse(R"(
    a(X) -> s(X, Z).
    s(U, U) -> a(U).
  )");
  EXPECT_TRUE(Ja(p));
  EXPECT_TRUE(Swa(p));
}

TEST(SuperWeakAcyclicityTest, SeparatedFromJointByPlaceGranularity) {
  // σ1 writes the invented z into *both* positions of s across its two head
  // atoms, so Move(z) = {s1, s2} at the position level and joint acyclicity
  // must assume σ2 can re-fire — it rejects. SWA tracks atoms: covering
  // s(u,u) by either head atom forces u = x = f(x), which fails the occurs
  // check, so no feedback exists and SWA accepts.
  Program p = MustParse(R"(
    a(X) -> s(X, Z), s(Z, X).
    s(U, U) -> a(U).
  )");
  EXPECT_FALSE(Ja(p));
  EXPECT_TRUE(Swa(p));
  // Confirm termination empirically from a database realizing every shape.
  Program with_data = MustParse(R"(
    a(c). s(c, c). s(c, d).
    a(X) -> s(X, Z), s(Z, X).
    s(U, U) -> a(U).
  )");
  ChaseOptions options;
  options.max_atoms = 10'000;
  auto result = RunChase(*with_data.database, with_data.tgds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
}

TEST(SuperWeakAcyclicityTest, DistinctSkolemsBlockUnification) {
  // Head r(x, f_y(x), f_z(x)) vs body r(u, v, v): v = f_y(x) = f_z(x) is a
  // function clash, so the rule cannot re-fire on its own output.
  Program p = MustParse(R"(
    a(X) -> r(X, Y, Z).
    r(U, V, V) -> a(V).
  )");
  EXPECT_TRUE(Swa(p));
}

TEST(SuperWeakAcyclicityTest, GenuineCycleThroughTwoRules) {
  Program p = MustParse(R"(
    a(X) -> r(X, Z).
    r(X, Y) -> a(Y).
  )");
  EXPECT_FALSE(Swa(p));
}

// ---------------------------------------------------------------------------
// MFA

TEST(MfaTest, DatalogIsMfa) {
  Program p = MustParse("r(X,Y) -> s(Y,X).\ns(X,Y) -> r(X,Y).");
  EXPECT_TRUE(Mfa(p));
}

TEST(MfaTest, SelfFeedingRuleIsNotMfa) {
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  EXPECT_FALSE(Mfa(p));
}

TEST(MfaTest, TerminatingInventionIsMfa) {
  Program p = MustParse("a(X) -> b(X,Z).\nb(X,Y) -> c(Y).");
  EXPECT_TRUE(Mfa(p));
}

TEST(MfaTest, SeparatedFromSuperWeakByValueSensitivity) {
  // The swap rule σ3 lets SWA cover both body places of σ2's repeated
  // variable u *independently* (per-place covering cannot insist the two
  // slots hold the same value simultaneously), so SWA rejects. The MFA
  // chase works with actual values: the invented null only ever appears
  // opposite the star constant, s(u,u) never matches, and the critical
  // chase reaches a fixpoint — MFA accepts.
  Program p = MustParse(R"(
    a(X) -> s(X, Z).
    s(U, U) -> a(U).
    s(U, W) -> s(W, U).
  )");
  EXPECT_FALSE(Swa(p));
  EXPECT_TRUE(Mfa(p));
  // Termination holds empirically as well.
  Program with_data = MustParse(R"(
    a(c). s(c, c). s(c, d).
    a(X) -> s(X, Z).
    s(U, U) -> a(U).
    s(U, W) -> s(W, U).
  )");
  ChaseOptions options;
  options.max_atoms = 10'000;
  auto result = RunChase(*with_data.database, with_data.tgds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
}

TEST(MfaTest, ResourceExhaustionIsReported) {
  // Binary-tree blow-up: each fact invents two successors; acyclic nesting
  // of distinct tags keeps the MFA chase growing past a tiny budget even
  // though each tag appears once per path... here the same rule re-invents,
  // so pick a budget smaller than the first rounds instead.
  Program p = MustParse(R"(
    n0(X) -> n1(X, Y), n1(X, Z).
    n1(X, Y) -> n2(Y, Z), n2(Y, W).
    n2(X, Y) -> n3(Y, Z), n3(Y, W).
  )");
  MfaOptions options;
  options.max_atoms = 4;
  auto verdict = IsModelFaithfulAcyclic(*p.schema, p.tgds, options);
  EXPECT_EQ(verdict.status().code(), StatusCode::kResourceExhausted);
}

TEST(MfaTest, RejectsRulesThatDoNotFitTheSchema) {
  // Predicate ids are shared by position: the rules' schema interns in
  // text order, the target schema declares p/1 (and s/1 where given).
  struct Case {
    const char* rules;
    bool declare_s;
  };
  for (const Case& c : {Case{"p(X) -> q5(X).", false},  // head outside
                        Case{"p(X, Y), p(Y, X) -> s(X).", true},  // body arity
                        Case{"p(X) -> s(X, Y).", true}}) {  // head arity
    Schema rule_schema;
    auto tgds = ParseTgds(c.rules, &rule_schema);
    ASSERT_TRUE(tgds.ok()) << tgds.status();
    Schema schema;
    ASSERT_TRUE(schema.AddPredicate("p", 1).ok());
    if (c.declare_s) ASSERT_TRUE(schema.AddPredicate("s", 1).ok());
    auto verdict = IsModelFaithfulAcyclic(schema, *tgds);
    ASSERT_FALSE(verdict.ok()) << c.rules;
    EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument)
        << c.rules;
  }
}

TEST(MfaTest, MultiHeadSharedNullIsTracked) {
  // The same invented null appears in two head atoms; its reuse through
  // either atom must carry provenance.
  Program p = MustParse(R"(
    a(X) -> r(X, Z), s(Z, X).
    s(Y, X) -> a(Y).
  )");
  EXPECT_FALSE(Mfa(p));
}

// ---------------------------------------------------------------------------
// Uniform termination (linear TGDs)

TEST(UniformTest, CriticalShapeDatabaseHasBellManyFacts) {
  Program p = MustParse("r(X,Y,U) -> s(X).\ns(X) -> t(X,Z).");
  Database critical = CriticalShapeDatabase(*p.schema);
  // r/3 contributes B(3)=5, s/1 contributes 1, t/2 contributes 2.
  EXPECT_EQ(critical.TotalFacts(), 5u + 1u + 2u);
}

TEST(UniformTest, RequiresLinearity) {
  Program p = MustParse("r(X,Y), s(Y,X) -> t(X).");
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
}

TEST(UniformTest, SimpleLinearUsesWeakAcyclicity) {
  Program uniform = MustParse("a(X) -> b(X,Z).\nb(X,Y) -> c(Y).");
  auto verdict = IsChaseFiniteUniform(*uniform.schema, uniform.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value());

  Program infinite = MustParse("r(X,Y) -> r(Y,Z).");
  verdict = IsChaseFiniteUniform(*infinite.schema, infinite.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value());
}

TEST(UniformTest, NonSimpleLinearTerminatingForAllDatabases) {
  // Example 3.4 of the paper: R(x,x) → ∃z R(z,x). For *every* database the
  // chase terminates: firing on R(c,c) yields R(n,c), whose arguments are
  // distinct, so the rule never re-fires on invented atoms.
  Program p = MustParse("r(X,X) -> r(Z,X).");
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value());
}

TEST(UniformTest, NonSimpleLinearInfiniteSomewhere) {
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value());
}

// ---------------------------------------------------------------------------
// Hierarchy properties on random rule sets: WA ⇒ JA ⇒ SWA ⇒ MFA, and MFA
// implies the critical-instance chase terminates.

struct ZooVerdicts {
  bool wa;
  bool ja;
  bool swa;
  std::optional<bool> mfa;  // nullopt if the budget ran out
};

class ZooHierarchyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ZooHierarchyTest, ContainmentsHoldOnRandomRuleSets) {
  Rng rng(GetParam());
  int accepted[4] = {0, 0, 0, 0};
  for (int trial = 0; trial < 150; ++trial) {
    Program p;
    // Small random schema.
    const uint32_t num_preds = 2 + static_cast<uint32_t>(rng.Below(3));
    std::vector<PredId> preds;
    for (uint32_t i = 0; i < num_preds; ++i) {
      auto pred = p.schema->AddPredicate(
          "p" + std::to_string(i), 1 + static_cast<uint32_t>(rng.Below(3)));
      ASSERT_TRUE(pred.ok());
      preds.push_back(*pred);
    }
    TgdGenParams params;
    params.ssize = num_preds;
    params.min_arity = 1;
    params.max_arity = 3;
    params.tsize = 1 + rng.Below(4);
    params.tclass = rng.Below(2) == 0 ? TgdClass::kSimpleLinear
                                      : TgdClass::kLinear;
    params.existential_percent = 35;
    params.seed = rng.Next();
    auto tgds = GenerateTgds(*p.schema, params);
    ASSERT_TRUE(tgds.ok()) << tgds.status();
    p.tgds = std::move(tgds).value();

    ZooVerdicts v;
    v.wa = Wa(p);
    v.ja = Ja(p);
    v.swa = Swa(p);
    MfaOptions mfa_options;
    mfa_options.max_atoms = 50'000;
    auto mfa = IsModelFaithfulAcyclic(*p.schema, p.tgds, mfa_options);
    if (mfa.ok()) {
      v.mfa = mfa.value();
    } else {
      ASSERT_EQ(mfa.status().code(), StatusCode::kResourceExhausted);
      v.mfa = std::nullopt;
    }

    const std::string description = TgdsToString(*p.schema, p.tgds);
    EXPECT_TRUE(!v.wa || v.ja) << "WA but not JA:\n" << description;
    EXPECT_TRUE(!v.ja || v.swa) << "JA but not SWA:\n" << description;
    if (v.mfa.has_value()) {
      EXPECT_TRUE(!v.swa || *v.mfa) << "SWA but not MFA:\n" << description;
      if (*v.mfa) {
        // MFA ⇒ the semi-oblivious chase of the critical-style database
        // (every predicate populated with one all-distinct fact) reaches a
        // fixpoint.
        Database critical = CriticalShapeDatabase(*p.schema);
        ChaseOptions chase_options;
        chase_options.max_atoms = 200'000;
        auto result = RunChase(critical, p.tgds, chase_options);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint)
            << "MFA accepted a non-terminating set:\n" << description;
      }
    }
    accepted[0] += v.wa;
    accepted[1] += v.ja;
    accepted[2] += v.swa;
    accepted[3] += v.mfa.value_or(false);
  }
  // The sample must exercise both verdicts for the test to mean anything.
  EXPECT_GT(accepted[0], 5);
  EXPECT_LT(accepted[3], 150);
  // The zoo is ordered by generality.
  EXPECT_LE(accepted[0], accepted[1]);
  EXPECT_LE(accepted[1], accepted[2]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZooHierarchyTest,
                         testing::Values(7, 77, 777, 7777));

// Uniform check agrees with the zoo's soundness on linear inputs: if any
// zoo notion accepts, the uniform check must accept too.
class UniformSoundnessTest : public testing::TestWithParam<uint64_t> {};

TEST_P(UniformSoundnessTest, ZooNotionsAreSoundForUniformTermination) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Program p;
    const uint32_t num_preds = 2 + static_cast<uint32_t>(rng.Below(3));
    for (uint32_t i = 0; i < num_preds; ++i) {
      ASSERT_TRUE(p.schema
                      ->AddPredicate("p" + std::to_string(i),
                                     1 + static_cast<uint32_t>(rng.Below(3)))
                      .ok());
    }
    TgdGenParams params;
    params.ssize = num_preds;
    params.min_arity = 1;
    params.max_arity = 3;
    params.tsize = 1 + rng.Below(4);
    params.tclass = TgdClass::kLinear;
    params.existential_percent = 35;
    params.seed = rng.Next();
    auto tgds = GenerateTgds(*p.schema, params);
    ASSERT_TRUE(tgds.ok());
    p.tgds = std::move(tgds).value();

    auto uniform = IsChaseFiniteUniform(*p.schema, p.tgds);
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    const std::string description = TgdsToString(*p.schema, p.tgds);
    if (Wa(p) || Ja(p) || Swa(p)) {
      EXPECT_TRUE(uniform.value())
          << "zoo accepted but uniform check rejects:\n" << description;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformSoundnessTest,
                         testing::Values(13, 131, 1313));

}  // namespace
}  // namespace acyclicity
}  // namespace chase
