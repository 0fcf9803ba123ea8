#include "acyclicity/mfa.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/status.h"
#include "chase/instance.h"
#include "chase/join_cursor.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace acyclicity {

namespace {

// Tag of an invention site: (rule index, existential variable). Dense ids.
struct TagTable {
  // first_tag[r] = dense tag id of rule r's first existential variable.
  std::vector<uint32_t> first_tag;
  uint32_t num_tags = 0;

  explicit TagTable(const std::vector<Tgd>& tgds) {
    first_tag.resize(tgds.size() + 1);
    uint32_t next = 0;
    for (size_t r = 0; r < tgds.size(); ++r) {
      first_tag[r] = next;
      next += tgds[r].num_existential();
    }
    first_tag[tgds.size()] = next;
    num_tags = next;
  }

  uint32_t TagOf(uint32_t rule, const Tgd& tgd, VarId exvar) const {
    return first_tag[rule] + (exvar - tgd.num_universal());
  }
};

// Sorted, deduplicated tag sets. Ancestries grow slowly (bounded by
// num_tags), so sorted vectors beat bitsets for typical rule counts.
using TagSet = std::vector<uint32_t>;

TagSet UnionTagSets(const TagSet& a, const TagSet& b) {
  TagSet result;
  result.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(result));
  return result;
}

bool ContainsTag(const TagSet& set, uint32_t tag) {
  return std::binary_search(set.begin(), set.end(), tag);
}

}  // namespace

StatusOr<bool> IsModelFaithfulAcyclic(const Schema& schema,
                                      const std::vector<Tgd>& tgds,
                                      const MfaOptions& options,
                                      MfaStats* stats) {
  CHASE_RETURN_IF_ERROR(CheckTgdsFitSchema(tgds, schema));
  const TagTable tags(tgds);

  // The critical instance: one all-star fact per predicate. The star is
  // constant 0; only nulls carry provenance so its id never matters.
  Instance instance(&schema);
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    instance.AddAtom(GroundAtom(
        pred, std::vector<Term>(schema.Arity(pred), MakeConstant(0))));
  }

  // Body join plans, declared once: AddAtom keeps the indexes current.
  std::vector<std::vector<uint32_t>> body_ids;
  for (const Tgd& tgd : tgds) {
    body_ids.push_back(PlanJoin(tgd.body(),
                                std::vector<char>(tgd.num_vars(), 0),
                                [&](PredId pred, std::vector<uint32_t> cols) {
                                  return instance.DeclareIndex(pred,
                                                               std::move(cols));
                                }));
  }

  // Provenance of every null: its own invention tag plus the ancestry of the
  // nulls its frontier binding contained (tag included).
  std::vector<TagSet> null_ancestry;

  // Semi-oblivious firing memory: one application per (rule, frontier
  // binding).
  std::set<std::pair<uint32_t, std::vector<Term>>> fired;

  JoinCursor cursor;
  std::vector<JoinCursor::Window> windows;
  bool cyclic = false;
  bool changed = true;
  while (changed && !cyclic) {
    changed = false;
    for (uint32_t r = 0; r < tgds.size() && !cyclic; ++r) {
      const Tgd& tgd = tgds[r];
      // Match against the instance as of the rule's turn: triggers fire as
      // they are found, but their atoms lie past the windows.
      windows.clear();
      for (const RuleAtom& atom : tgd.body()) {
        windows.push_back({0, instance.AtomsOf(atom.pred).size()});
      }
      cursor.Reset(instance, instance.indexes(), tgd.body(), body_ids[r],
                   windows, tgd.num_vars());
      while (!cyclic && cursor.Next()) {
        std::vector<Term>& h = cursor.h();
        std::vector<Term> frontier_binding;
        frontier_binding.reserve(tgd.frontier().size());
        for (VarId x : tgd.frontier()) frontier_binding.push_back(h[x]);
        if (!fired.emplace(r, std::move(frontier_binding)).second) continue;
        if (stats != nullptr) ++stats->triggers_fired;
        // Ancestry of the invented nulls: union over the frontier image.
        TagSet ancestry;
        for (VarId x : tgd.frontier()) {
          if (IsNull(h[x])) {
            ancestry = UnionTagSets(ancestry, null_ancestry[NullId(h[x])]);
          }
        }
        // Fresh nulls for the existentials, bound in the cursor's
        // assignment just long enough to build the head atoms.
        for (VarId z = tgd.num_universal(); z < tgd.num_vars() && !cyclic;
             ++z) {
          const uint32_t tag = tags.TagOf(r, tgd, z);
          if (ContainsTag(ancestry, tag)) {
            cyclic = true;  // a (σ, z)-null descends from a (σ, z)-null
            break;
          }
          const uint64_t null_id = instance.NewNullId();
          null_ancestry.push_back(UnionTagSets(ancestry, {tag}));
          if (stats != nullptr) ++stats->nulls_created;
          h[z] = MakeNull(null_id);
        }
        if (!cyclic) {
          for (const RuleAtom& head_atom : tgd.head()) {
            std::vector<Term> args;
            args.reserve(head_atom.args.size());
            for (VarId v : head_atom.args) args.push_back(h[v]);
            if (instance.AddAtom(GroundAtom(head_atom.pred, std::move(args)))) {
              changed = true;
            }
          }
        }
        std::fill(h.begin() + tgd.num_universal(), h.end(), kUnboundTerm);
        if (instance.NumAtoms() > options.max_atoms) {
          return ResourceExhaustedError(
              "MFA critical chase exceeded max_atoms");
        }
      }
    }
  }
  if (stats != nullptr) stats->atoms = instance.NumAtoms();
  return !cyclic;
}

}  // namespace acyclicity
}  // namespace chase
