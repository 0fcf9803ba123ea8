// The one join kernel: a resumable, index-backed backtracking cursor over a
// conjunction of rule atoms. It enumerates chase bodies (HomEnumerator,
// chase/body_partition.h), probes restricted-chase heads and Satisfies, and
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

}  // namespace chase

#endif  // CHASE_CHASE_JOIN_CURSOR_H_
