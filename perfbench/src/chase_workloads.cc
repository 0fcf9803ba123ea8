// The materialization workloads: chase_lubm (write-heavy semi-oblivious
// chase of a LUBM-style ontology, after a FINITE verdict) and chase_joins
// (non-linear star/chain/triangle rules chased with the semi-oblivious and
// the restricted variant, then queried). Each input is program text.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/scenario.h"
#include "gen/tgd_generator.h"
#include "harness.h"
#include "logic/atom.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/schema.h"
#include "logic/tgd.h"
#include "logic/term.h"
#include "query/conjunctive_query.h"

namespace perfbench {
namespace {

using chase::ChaseOutcome;
using chase::ChaseResult;
using chase::ChaseVariant;
using chase::Program;
using chase::Status;
using chase::StatusOr;

std::string ProgramText(const chase::Schema& schema,
                        const chase::Database& database,
                        const std::vector<chase::Tgd>& tgds) {
  std::ostringstream text;
  chase::PrintTgds(schema, tgds, text);
  chase::PrintDatabase(database, text);
  return text.str();
}

Expected Defect(std::string what) { return {{}, std::move(what)}; }

// Binds the variables of `pattern` to the terms of `atom`; false if a
// repeated variable meets two different terms.
bool Bind(const chase::RuleAtom& pattern, const chase::GroundAtom& atom,
          std::vector<chase::Term>* value, std::vector<char>* bound) {
  std::fill(bound->begin(), bound->end(), 0);
  for (size_t k = 0; k < pattern.args.size(); ++k) {
    const chase::VarId var = pattern.args[k];
    if ((*bound)[var] && (*value)[var] != atom.args[k]) return false;
    (*value)[var] = atom.args[k];
    (*bound)[var] = 1;
  }
  return true;
}

struct TermsHash {
  size_t operator()(const std::vector<chase::Term>& terms) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const chase::Term t : terms) h = (h ^ t) * 0x100000001b3ULL;
    return static_cast<size_t>(h);
  }
};

// I |= Σ for rules with one body and one head atom, with hashed lookups:
// every body match's frontier values must be the frontier values of some
// head match. Independent of the engine's join code, and linear in |I|
// where chase::Satisfies scans. Returns the defect, or "".
std::string LinearModelDefect(const chase::Instance& instance,
                              const std::vector<chase::Tgd>& tgds) {
  for (size_t r = 0; r < tgds.size(); ++r) {
    const chase::Tgd& tgd = tgds[r];
    if (tgd.body().size() != 1 || tgd.head().size() != 1) {
      return chase::Satisfies(instance, tgds)
                 ? ""
                 : "the chase fixpoint is not a model of the rules";
    }
    std::vector<chase::Term> value(tgd.num_vars());
    std::vector<char> bound(tgd.num_vars());
    std::vector<chase::Term> key(tgd.frontier().size());
    auto frontier_key = [&] {
      for (size_t k = 0; k < key.size(); ++k) key[k] = value[tgd.frontier()[k]];
    };
    std::unordered_set<std::vector<chase::Term>, TermsHash> heads;
    const chase::RuleAtom& head = tgd.head()[0];
    for (const chase::GroundAtom& atom : instance.AtomsOf(head.pred)) {
      if (!Bind(head, atom, &value, &bound)) continue;
      frontier_key();
      heads.insert(key);
    }
    const chase::RuleAtom& body = tgd.body()[0];
    for (const chase::GroundAtom& atom : instance.AtomsOf(body.pred)) {
      if (!Bind(body, atom, &value, &bound)) continue;
      frontier_key();
      if (heads.count(key) == 0) {
        return "rule " + std::to_string(r) + " is violated at the fixpoint";
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// chase_lubm

class ChaseLubm final : public Workload {
 public:
  ChaseLubm(uint64_t seed, Scale scale) {
    const bool tiny = scale == Scale::kTiny;
    chase::Rng rng(seed ^ 0x10b3);
    // LUBM pairs one fixed ontology with generated data: the rules come
    // from a fixed generator seed, the facts from the run's seed (both
    // scenarios declare the same predicates in the same order).
    auto ontology = chase::MakeLubmScenario("lubm", 1'000, kOntologySeed);
    if (!ontology.ok()) std::abort();
    const Program& rules = ontology->program;
    // Input 0, the one set-up runs, is the median size.
    for (const uint64_t facts : {16'000, 24'000, 40'000, 4'000, 8'000}) {
      // A user materializes only after a FINITE verdict: re-draw the data
      // until the check says FINITE.
      for (int attempt = 0;; ++attempt) {
        if (attempt == 16) {
          std::cerr << "perfbench: no FINITE LUBM data\n";
          std::exit(1);
        }
        auto data = chase::MakeLubmScenario(
            "lubm", tiny ? facts / 25 : facts, rng.Next());
        if (!data.ok()) std::abort();
        const chase::Database& db = *data->program.database;
        auto finite = chase::IsChaseFiniteL(db, rules.tgds);
        if (finite.ok() && *finite) {
          facts_.push_back(db.TotalFacts());
          texts_.push_back(ProgramText(*rules.schema, db, rules.tgds));
          break;
        }
      }
    }
  }

  size_t NumInputs() const override { return texts_.size(); }
  const char* ItemUnit() const override { return "atoms"; }
  const char* ThroughputName() const override { return "atoms_per_s"; }
  std::string Describe(size_t i) const override {
    return "LUBM-style ontology, 137 linear rules, " +
           std::to_string(facts_[i]) + " facts";
  }

  // Theorem 3.6 must say FINITE, the chase must reach a fixpoint, and the
  // fixpoint must be a model of the rules.
  Expected Reference(size_t i) const override {
    auto program = chase::ParseProgram(texts_[i]);
    if (!program.ok()) return Defect(std::string(program.status().message()));
    auto finite = chase::IsChaseFiniteLStatic(*program->database,
                                              program->tgds);
    if (!finite.ok() || !*finite) {
      return Defect("the Theorem 3.6 check does not say FINITE");
    }
    auto result = chase::RunChase(*program->database, program->tgds);
    if (!result.ok()) return Defect(std::string(result.status().message()));
    if (result->outcome != ChaseOutcome::kFixpoint) {
      return Defect("the chase of a FINITE input stopped at a limit");
    }
    std::string defect = LinearModelDefect(result->instance, program->tgds);
    if (!defect.empty()) return Defect(std::move(defect));
    return {Outputs(*result), ""};
  }

  Status SetUp() override {
    programs_.clear();
    for (const std::string& text : texts_) {
      CHASE_ASSIGN_OR_RETURN(Program program, chase::ParseProgram(text));
      programs_.push_back(std::move(program));
    }
    return chase::OkStatus();
  }

  StatusOr<OpOutput> Run(size_t i, Tracer* tracer) override {
    const Program& program = programs_[i];
    OpOutput out;
    std::optional<ChaseResult> result;
    {
      Tracer::Scope span(tracer, "chase.run");
      CHASE_ASSIGN_OR_RETURN(ChaseResult run,
                             chase::RunChase(*program.database, program.tgds));
      result.emplace(std::move(run));
    }
    out.result = Outputs(*result);
    out.items = static_cast<double>(result->instance.NumAtoms());
    if (tracer != nullptr) {
      out.counters["chase.rounds"] = result->rounds;
      out.counters["chase.triggers_fired"] = result->triggers_fired;
      out.counters["chase.atoms"] = result->instance.NumAtoms();
    }
    return out;
  }

 private:
  static std::vector<int64_t> Outputs(const ChaseResult& result) {
    return {result.outcome == ChaseOutcome::kFixpoint ? 1 : 0,
            static_cast<int64_t>(result.instance.NumAtoms()),
            static_cast<int64_t>(result.triggers_fired),
            static_cast<int64_t>(result.rounds)};
  }

  static constexpr uint64_t kOntologySeed = 1;

  std::vector<std::string> texts_;
  std::vector<uint64_t> facts_;
  std::vector<Program> programs_;
};

// ---------------------------------------------------------------------------
// chase_joins

// The answers of `query` on `instance`: all of them, and the null-free
// ones (the certain answers once the instance is a universal model).
std::pair<int64_t, int64_t> CountAnswers(
    const chase::Instance& instance,
    const chase::query::ConjunctiveQuery& query) {
  const std::vector<chase::query::Answer> answers =
      chase::query::Evaluate(instance, query);
  int64_t certain = 0;
  for (const chase::query::Answer& answer : answers) {
    certain += std::all_of(answer.begin(), answer.end(), chase::IsConstant);
  }
  return {static_cast<int64_t>(answers.size()), certain};
}

class ChaseJoins final : public Workload {
 public:
  ChaseJoins(uint64_t seed, Scale scale) {
    const bool tiny = scale == Scale::kTiny;
    chase::Rng rng(seed ^ 0x7015);
    // Eight relations r0..r7 of arity 2 and 3.
    for (uint32_t i = 0; i < kPreds; ++i) {
      if (!schema_.AddPredicate("r" + std::to_string(i), 2 + i % 2).ok()) {
        std::abort();
      }
    }
    // Fixed programs, like a benchmark's fixed queries: three rule sets per
    // family, by generator seed. The data varies with the run's seed. Chain
    // seed 3 is skipped because its chase does not terminate.
    using Family = chase::NonLinearFamily;
    const std::pair<Family, uint64_t> programs[] = {
        {Family::kStar, 1},     {Family::kStar, 2},     {Family::kStar, 3},
        {Family::kChain, 1},    {Family::kChain, 2},    {Family::kChain, 4},
        {Family::kTriangle, 1}, {Family::kTriangle, 2}, {Family::kTriangle, 3},
    };
    for (const auto& [family, program] : programs) {
      AddInput(family, program, tiny, &rng);
    }
  }

  size_t NumInputs() const override { return texts_.size(); }
  const char* ItemUnit() const override { return "atoms"; }
  const char* ThroughputName() const override { return "atoms_per_s"; }
  std::string Describe(size_t i) const override { return descriptions_[i]; }

  // Both variants must reach a fixpoint that is a model of the rules, and
  // the two universal models must give the same certain answers.
  Expected Reference(size_t i) const override {
    auto program = chase::ParseProgram(texts_[i]);
    if (!program.ok()) return Defect(std::string(program.status().message()));
    auto query = chase::query::ParseQuery(queries_[i], program->schema.get());
    if (!query.ok()) return Defect(std::string(query.status().message()));
    std::vector<int64_t> outputs;
    int64_t certain = -1;
    for (const ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
      chase::ChaseOptions options;
      options.variant = variant;
      auto result = chase::RunChase(*program->database, program->tgds,
                                    options);
      if (!result.ok()) return Defect(std::string(result.status().message()));
      if (result->outcome != ChaseOutcome::kFixpoint) {
        return Defect("the chase stopped at a limit");
      }
      if (!chase::Satisfies(result->instance, program->tgds)) {
        return Defect(std::string(chase::ChaseVariantName(variant)) +
                      " fixpoint is not a model of the rules");
      }
      const auto [answers, variant_certain] =
          CountAnswers(result->instance, *query);
      if (certain >= 0 && certain != variant_certain) {
        return Defect("the two variants give different certain answers");
      }
      certain = variant_certain;
      AppendOutputs(*result, answers, variant_certain, &outputs);
    }
    return {outputs, ""};
  }

  Status SetUp() override {
    programs_.clear();
    parsed_queries_.clear();
    for (size_t i = 0; i < texts_.size(); ++i) {
      CHASE_ASSIGN_OR_RETURN(Program program, chase::ParseProgram(texts_[i]));
      CHASE_ASSIGN_OR_RETURN(
          chase::query::ConjunctiveQuery query,
          chase::query::ParseQuery(queries_[i], program.schema.get()));
      programs_.push_back(std::move(program));
      parsed_queries_.push_back(std::move(query));
    }
    return chase::OkStatus();
  }

  StatusOr<OpOutput> Run(size_t i, Tracer* tracer) override {
    const Program& program = programs_[i];
    OpOutput out;
    for (const ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
      chase::ChaseOptions options;
      options.variant = variant;
      std::optional<ChaseResult> result;
      {
        Tracer::Scope span(tracer, "chase.run");
        CHASE_ASSIGN_OR_RETURN(
            ChaseResult run,
            chase::RunChase(*program.database, program.tgds, options));
        result.emplace(std::move(run));
      }
      std::pair<int64_t, int64_t> answers;
      {
        Tracer::Scope span(tracer, "query.eval");
        answers = CountAnswers(result->instance, parsed_queries_[i]);
      }
      AppendOutputs(*result, answers.first, answers.second, &out.result);
      out.items += static_cast<double>(result->instance.NumAtoms());
      if (tracer != nullptr) {
        out.counters["chase.rounds"] += result->rounds;
        out.counters["chase.triggers_fired"] += result->triggers_fired;
        out.counters["chase.atoms"] += result->instance.NumAtoms();
        out.counters["query.answers"] += answers.first;
      }
    }
    return out;
  }

 private:
  static void AppendOutputs(const ChaseResult& result, int64_t answers,
                            int64_t certain, std::vector<int64_t>* out) {
    out->insert(out->end(),
                {result.outcome == ChaseOutcome::kFixpoint ? 1 : 0,
                 static_cast<int64_t>(result.instance.NumAtoms()),
                 static_cast<int64_t>(result.triggers_fired),
                 static_cast<int64_t>(result.rounds), answers, certain});
  }

  // Draws data for one fixed program until its semi-oblivious chase
  // reaches a fixpoint.
  void AddInput(chase::NonLinearFamily family, uint64_t program, bool tiny,
                chase::Rng* rng) {
    chase::NonLinearGenParams rule_params;
    rule_params.ssize = kPreds;
    rule_params.min_arity = 2;
    rule_params.max_arity = 3;
    rule_params.tsize = 8;
    rule_params.family = family;
    rule_params.body_atoms =
        family == chase::NonLinearFamily::kTriangle ? 3 : 2;
    rule_params.seed = program;
    auto tgds = chase::GenerateNonLinearTgds(schema_, rule_params);
    if (!tgds.ok()) {
      std::cerr << tgds.status() << "\n";
      std::abort();
    }
    std::vector<chase::PredId> preds(kPreds);
    std::iota(preds.begin(), preds.end(), 0);
    const uint64_t rsize = tiny ? 40 : 400;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 16) {
        std::cerr << "perfbench: no terminating data for "
                  << chase::NonLinearFamilyName(family) << " program "
                  << program << "\n";
        std::exit(1);
      }
      chase::Database db(&schema_);
      if (!chase::PopulateRelations(&db, preds, 2 * rsize, rsize, rng).ok()) {
        std::abort();
      }
      chase::ChaseOptions probe;
      probe.max_atoms = kMaxAtoms;
      auto result = chase::RunChase(db, *tgds, probe);
      if (!result.ok() || result->outcome != ChaseOutcome::kFixpoint) continue;
      texts_.push_back(ProgramText(schema_, db, *tgds));
      descriptions_.push_back(
          std::string(chase::NonLinearFamilyName(family)) + " program " +
          std::to_string(program) + ", 8 rules, " +
          std::to_string(db.TotalFacts()) + " facts, " +
          std::to_string(result->instance.NumAtoms()) +
          " semi-oblivious atoms");
      break;
    }
    // q(X, Z) :- a(X, ..., Y), b(Y, ..., Z): a two-atom join over two
    // distinct relations, fixed per program, answering on end positions.
    chase::Rng pick(program * 8 + static_cast<uint64_t>(family));
    const auto a = static_cast<chase::PredId>(pick.Below(kPreds));
    const auto b =
        static_cast<chase::PredId>((a + 1 + pick.Below(kPreds - 1)) % kPreds);
    auto atom = [&](chase::PredId pred, const std::string& first,
                    const std::string& last, const std::string& middle) {
      std::string text = schema_.PredicateName(pred) + "(" + first;
      for (uint32_t k = 1; k + 1 < schema_.Arity(pred); ++k) {
        text += ", " + middle + std::to_string(k);
      }
      return text + ", " + last + ")";
    };
    queries_.push_back("q(X, Z) :- " + atom(a, "X", "Y", "U") + ", " +
                       atom(b, "Y", "Z", "V") + ".");
  }

  static constexpr uint32_t kPreds = 8;
  static constexpr uint64_t kMaxAtoms = 20'000;

  chase::Schema schema_;
  std::vector<std::string> texts_;
  std::vector<std::string> queries_;
  std::vector<std::string> descriptions_;
  std::vector<Program> programs_;
  std::vector<chase::query::ConjunctiveQuery> parsed_queries_;
};

}  // namespace

std::unique_ptr<Workload> MakeChaseLubm(uint64_t seed, Scale scale) {
  return std::make_unique<ChaseLubm>(seed, scale);
}

std::unique_ptr<Workload> MakeChaseJoins(uint64_t seed, Scale scale) {
  return std::make_unique<ChaseJoins>(seed, scale);
}

}  // namespace perfbench
