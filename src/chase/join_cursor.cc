#include "chase/join_cursor.h"

#include <algorithm>

#include "chase/instance.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {

std::vector<uint32_t> PlanJoin(
    std::span<const RuleAtom> atoms, std::vector<char> bound,
    const std::function<uint32_t(PredId, std::vector<uint32_t>)>& declare) {
  std::vector<uint32_t> ids;
  ids.reserve(atoms.size());
  for (const RuleAtom& atom : atoms) {
    std::vector<uint32_t> cols;
    for (uint32_t c = 0; c < atom.args.size(); ++c) {
      if (bound[atom.args[c]] != 0) cols.push_back(c);
    }
    ids.push_back(cols.empty() ? IndexSet::kScan
                               : declare(atom.pred, std::move(cols)));
    for (VarId var : atom.args) bound[var] = 1;
  }
  return ids;
}

void JoinCursor::Reset(const Instance& instance, const IndexSet& indexes,
                       std::span<const RuleAtom> atoms,
                       std::span<const uint32_t> ids,
                       std::span<const Window> windows, uint32_t num_vars) {
  instance_ = &instance;
  atoms_ = atoms;
  levels_.resize(atoms.size());
  for (size_t k = 0; k < atoms.size(); ++k) {
    levels_[k] = Level{indexes.Get(ids[k]), nullptr, windows[k]};
  }
  h_.assign(num_vars, kUnboundTerm);
  trail_.clear();
  depth_ = 0;
  started_ = false;
  at_match_ = false;
  done_ = false;
}

// Positions level k at its first candidate under the current assignment.
void JoinCursor::Enter(size_t k) {
  Level& level = levels_[k];
  if (level.index == nullptr) {
    level.pos = level.window.begin;
    return;
  }
  const std::vector<VarId>& args = atoms_[k].args;
  level.list = level.index->Find(PostingIndex::Key(
      level.index->cols(), [&](uint32_t c) { return h_[args[c]]; }));
  level.pos = level.list == nullptr
                  ? 0
                  : static_cast<size_t>(
                        std::lower_bound(level.list->begin(),
                                         level.list->end(),
                                         level.window.begin) -
                        level.list->begin());
}

bool JoinCursor::Candidate(const Level& level, size_t* row) const {
  if (level.index == nullptr) {
    *row = level.pos;
  } else {
    if (level.list == nullptr || level.pos >= level.list->size()) return false;
    *row = (*level.list)[level.pos];
  }
  return *row < level.window.end;
}

bool JoinCursor::Next() {
  if (done_) return false;
  const size_t n = levels_.size();
  if (at_match_) {
    // Step off the match emitted last time: unbind the deepest position
    // and advance its cursor.
    at_match_ = false;
    depth_ = n - 1;
    UndoBindings(levels_[depth_].mark);
    ++levels_[depth_].pos;
  } else if (!started_) {
    started_ = true;
    Enter(0);
  }
  while (true) {
    Level& level = levels_[depth_];
    size_t row = 0;
    bool descended = false;
    while (Candidate(level, &row)) {
      level.mark = trail_.size();
      ++rows_probed_;
      // Re-fetch the relation on every access: appends between Next()
      // calls may reallocate it. Rows inside the windows are stable.
      const RuleAtom& pattern = atoms_[depth_];
      if (Bind(pattern, instance_->AtomsOf(pattern.pred)[row])) {
        if (depth_ + 1 == n) {
          at_match_ = true;
          return true;
        }
        Enter(++depth_);
        descended = true;
        break;
      }
      ++level.pos;
    }
    if (descended) continue;
    // This position is exhausted: backtrack, or finish at the root.
    if (depth_ == 0) {
      done_ = true;
      return false;
    }
    --depth_;
    UndoBindings(levels_[depth_].mark);
    ++levels_[depth_].pos;
  }
}

bool JoinCursor::Bind(const RuleAtom& pattern, const GroundAtom& atom) {
  const size_t mark = trail_.size();
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    const VarId var = pattern.args[i];
    if (h_[var] == kUnboundTerm) {
      h_[var] = atom.args[i];
      trail_.push_back(var);
    } else if (h_[var] != atom.args[i]) {
      UndoBindings(mark);
      return false;
    }
  }
  return true;
}

void JoinCursor::UndoBindings(size_t mark) {
  while (trail_.size() > mark) {
    h_[trail_.back()] = kUnboundTerm;
    trail_.pop_back();
  }
}

bool HomEnumerator::Reset(const Tgd* tgd, std::span<const uint32_t> body_ids,
                          const Instance* instance, const RoundView* view,
                          size_t delta_pos) {
  // The delta rows at the delta position, only previous-rounds rows before
  // it (so each trigger is enumerated once, at its first delta position),
  // the full round-start prefix after it.
  const size_t n = tgd->body().size();
  windows_.resize(n);
  bool empty = false;
  for (size_t pos = 0; pos < n; ++pos) {
    const PredId pred = tgd->body()[pos].pred;
    if (pos == delta_pos) {
      windows_[pos] = {view->PrevOf(pred), view->CurOf(pred)};
    } else if (pos < delta_pos) {
      windows_[pos] = {0, view->PrevOf(pred)};
    } else {
      windows_[pos] = {0, view->CurOf(pred)};
    }
    if (windows_[pos].begin == windows_[pos].end) empty = true;
  }
  // An empty outermost window ends the cursor before it probes any row.
  if (empty) windows_[0] = {0, 0};
  cursor_.Reset(*instance, instance->indexes(), tgd->body(), body_ids,
                windows_, tgd->num_vars());
  return !empty;
}

}  // namespace chase
