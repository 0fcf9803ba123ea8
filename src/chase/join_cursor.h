// The one join kernel: a resumable, index-backed backtracking cursor over a
// conjunction of rule atoms. It enumerates chase bodies (HomEnumerator,
// below), probes restricted-chase heads and Satisfies, and
// evaluates conjunctive queries and MFA's critical chase.
//
// Position k of the conjunction draws its candidates from a row window
// [begin, end) of its predicate's relation. Where some columns of position
// k are bound before it is matched — their variables occur at an earlier
// position or are bound up front (a head's frontier) — a posting index on
// exactly those columns (chase/instance.h) narrows the window to the rows
// whose bound values hash to the current assignment's. Posting lists hold
// ascending row ids, so the cursor visits the surviving rows of the window
// in the same ascending order a full scan would, and every candidate is
// still checked against its pattern (hash keys may collide). The index
// therefore only skips rows the check would reject: the match stream —
// order included — is the full scan's.
//
// Concurrency: Next() re-reads each posting list and relation by position
// on every step, and only rows inside its windows, so appends between two
// Next() calls (which may reallocate those vectors) are safe as long as the
// caller orders them before the next call. Concurrent cursors over one
// instance are safe while nothing appends.

#ifndef CHASE_CHASE_JOIN_CURSOR_H_
#define CHASE_CHASE_JOIN_CURSOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "chase/instance.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {

inline constexpr Term kUnboundTerm = ~uint64_t{0};

// The index ids of a conjunction's positions: position k is keyed on the
// columns whose variable is marked in `bound` (indexed by VarId) or occurs
// at a position before k, declared through `declare(pred, cols)`;
// IndexSet::kScan where no column is bound. The loop order is fixed, so one
// plan serves every window a caller later matches the conjunction in.
std::vector<uint32_t> PlanJoin(
    std::span<const RuleAtom> atoms, std::vector<char> bound,
    const std::function<uint32_t(PredId, std::vector<uint32_t>)>& declare);

class JoinCursor {
 public:
  struct Window {
    size_t begin = 0;
    size_t end = 0;
  };

  // Starts the matches of `atoms` (non-empty, as every TGD body and head
  // and CQ body is) into `instance`, position k drawn from windows[k]
  // through the index ids[k] names in `indexes` (a PlanJoin result). Every
  // variable of [0, num_vars) starts unbound; before the first Next(),
  // callers pre-bind in h() exactly the variables the plan took as
  // `bound`. `atoms`, `indexes` and `instance` must outlive the search.
  void Reset(const Instance& instance, const IndexSet& indexes,
             std::span<const RuleAtom> atoms, std::span<const uint32_t> ids,
             std::span<const Window> windows, uint32_t num_vars);

  // Advances to the next match in stream order; false once exhausted (then
  // stays false). Pausable between any two calls.
  bool Next();

  // The assignment, complete after Next() returns true. Mutable so callers
  // can pre-bind; must be restored before the next Next().
  std::vector<Term>& h() { return h_; }

  // Candidate rows checked against their pattern since construction (all
  // Resets).
  uint64_t rows_probed() const { return rows_probed_; }

 private:
  struct Level {
    const PostingIndex* index = nullptr;  // null: scan the window
    const std::vector<uint32_t>* list = nullptr;  // index's list for the key
    Window window;
    size_t pos = 0;   // next row (scan) or next list entry (index)
    size_t mark = 0;  // trail watermark before this level's binding
  };

  void Enter(size_t k);
  bool Candidate(const Level& level, size_t* row) const;
  // Extends h_ so that `pattern` maps onto `atom`, logging new bindings in
  // trail_; on failure h_ and trail_ are left as they were.
  bool Bind(const RuleAtom& pattern, const GroundAtom& atom);
  void UndoBindings(size_t mark);

  const Instance* instance_ = nullptr;
  std::span<const RuleAtom> atoms_;
  std::vector<Level> levels_;
  std::vector<Term> h_;       // partial assignment, kUnboundTerm = free
  std::vector<VarId> trail_;  // bound-variable undo log
  size_t depth_ = 0;          // position currently being advanced
  bool started_ = false;
  bool at_match_ = false;     // paused on an emitted match
  bool done_ = true;
  uint64_t rows_probed_ = 0;
};

// ---------------------------------------------------------------------------
// The semi-naive round's body enumeration.
//
// The engine enumerates the triggers of a round by streaming, for each rule
// and each delta position d, a JoinCursor over the body atoms: position 0
// is the outermost loop, each position's candidate rows are a contiguous
// range fixed by the round window (delta rows at d, the previous-rounds
// prefix before d, the full round-start prefix after d), visited in
// ascending order whether scanned or narrowed by a posting index. The
// round's trigger order is therefore the lexicographic order of (rule,
// delta position, row at position 0, row at position 1, …).

// Per-round visibility window: body atoms are matched against the instance
// as of the start of the round ("cur"), with semi-naive deltas given by
// "prev" (atoms created in the previous round have index in [prev, cur)).
struct RoundView {
  std::vector<size_t> prev;
  std::vector<size_t> cur;

  size_t PrevOf(PredId pred) const {
    return pred < prev.size() ? prev[pred] : 0;
  }
  size_t CurOf(PredId pred) const { return pred < cur.size() ? cur[pred] : 0; }
};

// The enumeration cursor over one (rule, delta position) task: a JoinCursor
// over the rule body whose position windows are the task's candidate
// ranges. Usage:
//
//   HomEnumerator e;
//   if (e.Reset(&tgd, body_ids, &instance, &view, delta_pos)) {
//     while (e.Next()) consume(e.hom());
//   }
//
// Next() returns true with hom() bound on all universal variables (the
// task's next homomorphism in streaming order), false when the task is
// exhausted. `body_ids` is the rule body's PlanJoin over `instance`'s
// indexes. Windows never reach past the round-start watermark, so atoms
// the round appends between two Next() calls are invisible to the
// enumeration (see JoinCursor for why they are safe).
class HomEnumerator {
 public:
  // Starts the task. False when some body position has no candidate row:
  // the task has no trigger, and Next() then returns false without probing
  // a row.
  bool Reset(const Tgd* tgd, std::span<const uint32_t> body_ids,
             const Instance* instance, const RoundView* view,
             size_t delta_pos);

  // Advances to the task's next homomorphism. False once exhausted (then
  // stays false).
  bool Next() {
    if (!cursor_.Next()) return false;
    ++homs_;
    return true;
  }

  const std::vector<Term>& hom() { return cursor_.h(); }

  // Work done since construction, over every Reset: candidate rows probed
  // and homomorphisms emitted.
  uint64_t rows_probed() const { return cursor_.rows_probed(); }
  uint64_t homs() const { return homs_; }

 private:
  JoinCursor cursor_;
  std::vector<JoinCursor::Window> windows_;
  uint64_t homs_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_JOIN_CURSOR_H_
