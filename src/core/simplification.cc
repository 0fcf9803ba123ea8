#include "core/simplification.h"

#include "base/status.h"
#include "core/specialization.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"

namespace chase {

PredId ShapeSchema::Intern(const Shape& shape) {
  auto it = index_.find(shape);
  if (it != index_.end()) return it->second;
  auto pred = schema_.AddPredicate(ShapeName(*base_, shape),
                                   shape.NumDistinct());
  // Names are unique by construction (one per shape), so this cannot fail.
  const PredId id = pred.value();
  shapes_.push_back(shape);
  index_.emplace(shape, id);
  return id;
}

RuleAtom SimplifyRuleAtom(const RuleAtom& atom,
                          const std::vector<VarId>& subst,
                          ShapeSchema& shape_schema, Shape* shape_out) {
  std::vector<VarId> tuple;
  tuple.reserve(atom.args.size());
  for (VarId var : atom.args) tuple.push_back(subst[var]);
  Shape shape(atom.pred, IdOf(std::span<const VarId>(tuple)));
  RuleAtom simplified;
  simplified.pred = shape_schema.Intern(shape);
  simplified.args = UniqueOf(std::span<const VarId>(tuple));
  if (shape_out != nullptr) *shape_out = std::move(shape);
  return simplified;
}

namespace {

Status ValidateSimplification(const Tgd& tgd, const Specialization& f) {
  if (!tgd.IsLinear()) {
    return InvalidArgumentError("simplification requires a linear TGD");
  }
  if (f.size() != tgd.num_universal() || !IsValidSpecialization(f)) {
    return InvalidArgumentError("invalid specialization for this TGD");
  }
  return OkStatus();
}

// The distinct body variables of a normalized linear TGD are exactly the
// universal variables 0..num_universal-1, in first-occurrence order, so the
// specialization applies to variable ids directly. Existential variables
// are untouched.
std::vector<VarId> SubstOf(const Tgd& tgd, const Specialization& f) {
  std::vector<VarId> subst(tgd.num_vars());
  for (VarId var = 0; var < tgd.num_vars(); ++var) {
    subst[var] = tgd.IsUniversal(var) ? f[var] : var;
  }
  return subst;
}

}  // namespace

StatusOr<Tgd> SimplifyTgd(const Tgd& tgd, const Specialization& f,
                          ShapeSchema& shape_schema,
                          std::vector<Shape>* head_shapes) {
  CHASE_RETURN_IF_ERROR(ValidateSimplification(tgd, f));
  const std::vector<VarId> subst = SubstOf(tgd, f);
  std::vector<RuleAtom> body = {
      SimplifyRuleAtom(tgd.body()[0], subst, shape_schema, nullptr)};
  std::vector<RuleAtom> head;
  head.reserve(tgd.head().size());
  for (const RuleAtom& atom : tgd.head()) {
    Shape shape;
    head.push_back(SimplifyRuleAtom(atom, subst, shape_schema,
                                    head_shapes != nullptr ? &shape : nullptr));
    if (head_shapes != nullptr) head_shapes->push_back(std::move(shape));
  }
  return Tgd::Create(std::move(body), std::move(head));
}

StatusOr<StaticSimplificationResult> StaticSimplification(
    const Schema& schema, const std::vector<Tgd>& tgds, uint64_t max_output) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError(
        "static simplification requires linear TGDs");
  }
  StaticSimplificationResult result;
  result.shape_schema = std::make_unique<ShapeSchema>(&schema);
  for (const Tgd& tgd : tgds) {
    for (const Specialization& f :
         EnumerateSpecializations(tgd.num_universal())) {
      if (result.tgds.size() >= max_output) {
        return ResourceExhaustedError(
            "static simplification exceeded the output cap of " +
            std::to_string(max_output) + " TGDs");
      }
      CHASE_ASSIGN_OR_RETURN(
          Tgd simplified,
          SimplifyTgd(tgd, f, *result.shape_schema, nullptr));
      result.tgds.push_back(std::move(simplified));
    }
  }
  return result;
}

uint64_t StaticSimplificationSize(const std::vector<Tgd>& tgds) {
  uint64_t total = 0;
  for (const Tgd& tgd : tgds) {
    const uint64_t count = BellNumber(tgd.num_universal());
    total = total > UINT64_MAX - count ? UINT64_MAX : total + count;
  }
  return total;
}

std::unique_ptr<Database> SimplifyDatabase(const Database& database,
                                           ShapeSchema& shape_schema) {
  auto simplified = std::make_unique<Database>(&shape_schema.schema());
  std::vector<uint32_t> buffer;
  for (PredId pred : database.NonEmptyPredicates()) {
    const size_t rows = database.NumTuples(pred);
    for (size_t row = 0; row < rows; ++row) {
      auto tuple = database.Tuple(pred, row);
      Shape shape = ShapeOfTuple(pred, tuple);
      const PredId simplified_pred = shape_schema.Intern(shape);
      std::vector<uint32_t> unique =
          UniqueOf(std::span<const uint32_t>(tuple));
      buffer.clear();
      for (uint32_t constant : unique) {
        buffer.push_back(
            simplified->InternConstant(database.ConstantName(constant)));
      }
      // Arity matches NumDistinct by construction, so AddFact cannot fail.
      (void)simplified->AddFact(simplified_pred, buffer);
    }
  }
  return simplified;
}

}  // namespace chase
