#include "logic/tgd.h"

#include "base/status.h"
#include "logic/atom.h"
#include "logic/schema.h"

#include <algorithm>
#include <unordered_map>

namespace chase {

StatusOr<Tgd> Tgd::Create(std::vector<RuleAtom> body,
                          std::vector<RuleAtom> head) {
  if (body.empty()) return InvalidArgumentError("TGD body must be non-empty");
  if (head.empty()) return InvalidArgumentError("TGD head must be non-empty");
  for (const RuleAtom& atom : body) {
    if (atom.args.empty()) {
      return InvalidArgumentError("TGD atoms must have positive arity");
    }
  }
  for (const RuleAtom& atom : head) {
    if (atom.args.empty()) {
      return InvalidArgumentError("TGD atoms must have positive arity");
    }
  }

  // Renumber: body variables first (first-occurrence order), then head-only
  // variables (first-occurrence order).
  std::unordered_map<VarId, VarId> renumber;
  auto visit = [&renumber](std::vector<RuleAtom>& atoms) {
    for (RuleAtom& atom : atoms) {
      for (VarId& var : atom.args) {
        auto [it, inserted] =
            renumber.emplace(var, static_cast<VarId>(renumber.size()));
        var = it->second;
        (void)inserted;
      }
    }
  };
  visit(body);
  const auto num_universal = static_cast<uint32_t>(renumber.size());
  visit(head);
  const auto num_vars = static_cast<uint32_t>(renumber.size());

  Tgd tgd;
  tgd.body_ = std::move(body);
  tgd.head_ = std::move(head);
  tgd.num_vars_ = num_vars;
  tgd.num_universal_ = num_universal;
  tgd.in_frontier_.assign(num_vars, false);
  for (const RuleAtom& atom : tgd.head_) {
    for (VarId var : atom.args) {
      if (var < num_universal) tgd.in_frontier_[var] = true;
    }
  }
  for (VarId var = 0; var < num_universal; ++var) {
    if (tgd.in_frontier_[var]) tgd.frontier_.push_back(var);
  }
  return tgd;
}

bool AllLinear(const std::vector<Tgd>& tgds) {
  return std::all_of(tgds.begin(), tgds.end(),
                     [](const Tgd& tgd) { return tgd.IsLinear(); });
}

bool AllSimpleLinear(const std::vector<Tgd>& tgds) {
  return std::all_of(tgds.begin(), tgds.end(),
                     [](const Tgd& tgd) { return tgd.IsSimpleLinear(); });
}

bool AllHaveNonEmptyFrontier(const std::vector<Tgd>& tgds) {
  return std::all_of(tgds.begin(), tgds.end(), [](const Tgd& tgd) {
    return tgd.HasNonEmptyFrontier();
  });
}

Status CheckTgdsFitSchema(const std::vector<Tgd>& tgds, const Schema& schema) {
  for (const Tgd& tgd : tgds) {
    for (const auto* atoms : {&tgd.body(), &tgd.head()}) {
      for (const RuleAtom& atom : *atoms) {
        if (atom.pred >= schema.NumPredicates()) {
          return InvalidArgumentError("TGD uses a predicate not in the schema");
        }
        if (atom.args.size() != schema.Arity(atom.pred)) {
          return InvalidArgumentError("TGD atom over " +
                                      schema.PredicateName(atom.pred) +
                                      " has the wrong arity for the schema");
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace chase
