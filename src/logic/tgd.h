// Tuple-generating dependencies (TGDs, a.k.a. existential rules):
//
//   body(x̄, ȳ)  →  ∃ z̄  head(x̄, z̄)
//
// Variables are normalized per rule: ids [0, num_universal()) are the
// universally quantified variables (those occurring in the body, numbered in
// first-occurrence order), ids [num_universal(), num_vars()) are the
// existentially quantified variables (head-only). The frontier fr(σ) is the
// set of universal variables that also occur in the head.

#ifndef CHASE_LOGIC_TGD_H_
#define CHASE_LOGIC_TGD_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "logic/atom.h"
#include "logic/schema.h"

namespace chase {

class Tgd {
 public:
  // Builds a TGD from raw atoms whose variable ids are arbitrary (but
  // consistent within the rule); variables are renumbered as described above.
  // Fails if the body or head is empty, or if a body atom has no arguments.
  [[nodiscard]] static StatusOr<Tgd> Create(std::vector<RuleAtom> body,
                              std::vector<RuleAtom> head);

  const std::vector<RuleAtom>& body() const { return body_; }
  const std::vector<RuleAtom>& head() const { return head_; }

  uint32_t num_vars() const { return num_vars_; }
  uint32_t num_universal() const { return num_universal_; }
  uint32_t num_existential() const { return num_vars_ - num_universal_; }

  bool IsUniversal(VarId var) const { return var < num_universal_; }
  bool IsExistential(VarId var) const { return var >= num_universal_; }

  // fr(σ): universal variables occurring in the head, ascending.
  const std::vector<VarId>& frontier() const { return frontier_; }
  bool HasNonEmptyFrontier() const { return !frontier_.empty(); }
  bool InFrontier(VarId var) const { return in_frontier_[var]; }

  // Class membership: L = one body atom; SL = additionally no repeated
  // variable in the body atom.
  bool IsLinear() const { return body_.size() == 1; }
  bool IsSimpleLinear() const {
    return IsLinear() && body_[0].HasDistinctVars();
  }

  friend bool operator==(const Tgd& a, const Tgd& b) {
    return a.body_ == b.body_ && a.head_ == b.head_;
  }

 private:
  Tgd() = default;

  std::vector<RuleAtom> body_;
  std::vector<RuleAtom> head_;
  uint32_t num_vars_ = 0;
  uint32_t num_universal_ = 0;
  std::vector<VarId> frontier_;
  std::vector<bool> in_frontier_;  // indexed by VarId, size num_vars_
};

// Convenience predicates over rule sets.
bool AllLinear(const std::vector<Tgd>& tgds);
bool AllSimpleLinear(const std::vector<Tgd>& tgds);
bool AllHaveNonEmptyFrontier(const std::vector<Tgd>& tgds);

// kInvalidArgument unless every body and head atom of `tgds` names a
// predicate of `schema` with the schema's arity.
[[nodiscard]] Status CheckTgdsFitSchema(const std::vector<Tgd>& tgds,
                                        const Schema& schema);

}  // namespace chase

#endif  // CHASE_LOGIC_TGD_H_
