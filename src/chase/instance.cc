#include "chase/instance.h"

#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/term.h"

namespace chase {

Instance Instance::FromDatabase(const Database& database) {
  Instance instance(&database.schema());
  const Schema& schema = database.schema();
  for (PredId pred : database.NonEmptyPredicates()) {
    const uint32_t arity = schema.Arity(pred);
    const size_t rows = database.NumTuples(pred);
    for (size_t row = 0; row < rows; ++row) {
      auto tuple = database.Tuple(pred, row);
      GroundAtom atom;
      atom.pred = pred;
      atom.args.reserve(arity);
      for (uint32_t constant : tuple) {
        atom.args.push_back(MakeConstant(constant));
      }
      instance.AddAtom(std::move(atom));
    }
  }
  return instance;
}

uint32_t IndexSet::Declare(PredId pred, std::vector<uint32_t> cols,
                           const std::vector<GroundAtom>& rows) {
  if (pred >= by_pred_.size()) by_pred_.resize(pred + 1);
  for (uint32_t id : by_pred_[pred]) {
    if (indexes_[id].cols() == cols) return id;
  }
  const uint32_t id = static_cast<uint32_t>(indexes_.size());
  PostingIndex& index = indexes_.emplace_back(std::move(cols));
  for (size_t row = 0; row < rows.size(); ++row) {
    index.Append(rows[row], static_cast<uint32_t>(row));
  }
  by_pred_[pred].push_back(id);
  return id;
}

bool Instance::AddAtom(GroundAtom atom) {
  if (!membership_.insert(atom).second) return false;
  if (atom.pred >= by_pred_.size()) by_pred_.resize(atom.pred + 1);
  std::vector<GroundAtom>& rows = by_pred_[atom.pred];
  rows.push_back(std::move(atom));
  indexes_.Append(rows.back(), rows.size() - 1);
  return true;
}

}  // namespace chase
