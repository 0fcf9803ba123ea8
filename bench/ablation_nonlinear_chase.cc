// Ablation: the chase over non-linear (multi-atom-body) rules, per join
// family and chase variant.
//
// Families:
//  * star — one hot hub row fanning out;
//  * chain — role composition;
//  * triangle — a cyclic three-atom join;
//  * cross — a disconnected body, the pure cross-product.
//
// Each (family, variant) row reports the best-of-reps wall-clock, the
// result counters (rounds, triggers fired, atoms), and the join work of
// the round bodies as rows probed per homomorphism
// (ChaseResult::body_rows_probed / body_homs; about 1 per joined position
// on key joins). Every rep must reproduce the first rep's outcome,
// counters and instance insertion order, or the bench fails. Also emits
// BENCH_nonlinear_chase.json (see WriteBenchJson) for CI to archive.

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase_engine.h"
#include "common.h"

using namespace chase;
using namespace chase::bench;

namespace {

std::vector<GroundAtom> CollectAtoms(const Instance& instance) {
  std::vector<GroundAtom> atoms;
  instance.ForEachAtom(
      [&](const GroundAtom& atom) { atoms.push_back(atom); });
  return atoms;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  Rng rng(flags.seed);

  TablePrinter table({"family", "variant", "t-ms", "rounds", "triggers",
                      "atoms", "probes/hom"});

  const NonLinearFamily families[] = {
      NonLinearFamily::kStar, NonLinearFamily::kChain,
      NonLinearFamily::kTriangle, NonLinearFamily::kCross};
  for (NonLinearFamily family : families) {
    DataGenParams data_params;
    data_params.preds = 6;
    data_params.min_arity = 2;
    data_params.max_arity = 3;
    data_params.dsize = 64;
    data_params.rsize = std::max<uint64_t>(
        4, static_cast<uint64_t>(60 * flags.scale));
    data_params.seed = rng.Next();
    auto data = GenerateData(data_params);
    if (!data.ok()) {
      std::cerr << data.status() << "\n";
      return 1;
    }

    NonLinearGenParams tgd_params;
    tgd_params.ssize = data->schema->NumPredicates();
    tgd_params.min_arity = 2;
    tgd_params.max_arity = 3;
    tgd_params.tsize = 6;
    tgd_params.family = family;
    tgd_params.body_atoms = family == NonLinearFamily::kTriangle ? 3 : 2;
    tgd_params.existential_percent = 20;
    tgd_params.seed = rng.Next();
    auto tgds = GenerateNonLinearTgds(*data->schema, tgd_params);
    if (!tgds.ok()) {
      std::cerr << tgds.status() << "\n";
      return 1;
    }

    for (ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_atoms = std::max<uint64_t>(
          500, static_cast<uint64_t>(20'000 * flags.scale));
      double best_ms = 0;
      std::optional<ChaseResult> first;
      std::vector<GroundAtom> first_atoms;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        Timer timer;
        auto result = RunChase(*data->database, *tgds, options);
        const double ms = timer.ElapsedMillis();
        if (!result.ok()) {
          std::cerr << result.status() << "\n";
          return 1;
        }
        best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        if (rep == 0) {
          first_atoms = CollectAtoms(result->instance);
          first.emplace(std::move(result).value());
        } else if (result->outcome != first->outcome ||
                   result->rounds != first->rounds ||
                   result->triggers_fired != first->triggers_fired ||
                   result->body_rows_probed != first->body_rows_probed ||
                   CollectAtoms(result->instance) != first_atoms) {
          std::cerr << "non-linear chase not repeatable (family="
                    << NonLinearFamilyName(family)
                    << ", variant=" << ChaseVariantName(variant) << ")\n";
          return 1;
        }
      }
      table.AddRow(
          {NonLinearFamilyName(family), ChaseVariantName(variant),
           FmtMs(best_ms), std::to_string(first->rounds),
           std::to_string(first->triggers_fired),
           std::to_string(first->instance.NumAtoms()),
           Fmt(static_cast<double>(first->body_rows_probed) /
                   static_cast<double>(std::max<uint64_t>(
                       1, first->body_homs)),
               2)});
    }
  }

  Emit(flags, "Ablation: the chase over non-linear rules", table);
  if (!WriteBenchJson(flags, "nonlinear_chase", table)) return 1;
  return 0;
}
