#include "core/dynamic_simplification.h"

#include <utility>

#include "base/status.h"
#include "core/simplification.h"
#include "core/specialization.h"
#include "exec/frontier_pool.h"
#include "index/find_shapes.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

// True iff a homomorphism from the body atom of `tgd` to the shape atom
// R(id) exists, i.e., positions sharing a variable carry equal id values.
// On success, fills `var_id_values[v]` with the id value of each universal
// variable v.
bool BodyHomToShape(const Tgd& tgd, const IdTuple& id,
                    std::vector<uint8_t>& var_id_values) {
  const RuleAtom& body = tgd.body()[0];
  var_id_values.assign(tgd.num_universal(), 0);
  for (size_t i = 0; i < body.args.size(); ++i) {
    uint8_t& value = var_id_values[body.args[i]];
    if (value == 0) {
      value = id[i];
    } else if (value != id[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

StatusOr<DynamicSimplificationResult> DynamicSimplificationFromShapes(
    const Schema& schema, const std::vector<Tgd>& tgds,
    const std::vector<Shape>& database_shapes) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError(
        "dynamic simplification requires linear TGDs");
  }
  for (const Shape& shape : database_shapes) {
    if (shape.pred >= schema.NumPredicates()) {
      return InvalidArgumentError(
          "database shape over a predicate missing from the schema");
    }
  }
  DynamicSimplificationResult result;
  result.shape_schema = std::make_unique<ShapeSchema>(&schema);

  // Index: body predicate -> rules (the "index structure that enables fast
  // access to the TGDs" of Section 5.4), ascending rule index — the
  // canonical per-shape emission order.
  std::vector<std::vector<size_t>> rules_by_body_pred(schema.NumPredicates());
  for (size_t rule = 0; rule < tgds.size(); ++rule) {
    rules_by_body_pred[tgds[rule].body()[0].pred].push_back(rule);
  }

  // S is the frontier's seen-set, ΔS its current depth: each (rule, shape)
  // pair is processed at most once because a shape is admitted into a
  // frontier exactly once.
  std::vector<uint8_t> var_id_values;
  std::vector<Shape> head_shapes;
  const Status status = ExpandFrontier<Shape, ShapeHash>(
      database_shapes,
      [&](const Shape& shape, const auto& discover) -> Status {
        for (size_t rule : rules_by_body_pred[shape.pred]) {
          const Tgd& tgd = tgds[rule];
          if (!BodyHomToShape(tgd, shape.id, var_id_values)) continue;
          head_shapes.clear();
          CHASE_ASSIGN_OR_RETURN(
              Tgd simplified,
              SimplifyTgd(tgd, SpecializationFromIdValues(var_id_values),
                          *result.shape_schema, &head_shapes));
          result.tgds.push_back(std::move(simplified));
          for (Shape& head : head_shapes) discover(std::move(head));
        }
        return OkStatus();
      },
      &result.frontier);
  CHASE_RETURN_IF_ERROR(status);
  result.num_initial_shapes = result.frontier.seeds_admitted;
  result.num_derived_shapes = result.frontier.items_expanded;
  return result;
}

StatusOr<DynamicSimplificationResult> DynamicSimplification(
    const Database& database, const std::vector<Tgd>& tgds,
    storage::ShapeFinderMode mode) {
  storage::Catalog catalog(&database);
  storage::MemoryShapeSource source(&catalog);
  CHASE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                         index::FindShapes(source, {.mode = mode}));
  return DynamicSimplificationFromShapes(database.schema(), tgds, shapes);
}

}  // namespace chase
