// The semi-naive round's body enumeration.
//
// The engine enumerates the triggers of a round by streaming, for each rule
// and each delta position d, a join over the body atoms
// (chase/join_cursor.h): position 0 is the outermost loop, each position's
// candidate rows are a contiguous range fixed by the round window (delta
// rows at d, the previous-rounds prefix before d, the full round-start
// prefix after d), visited in ascending order whether scanned or narrowed
// by a posting index. The round's trigger order is therefore the
// lexicographic order of (rule, delta position, row at position 0, row at
// position 1, …).

#ifndef CHASE_CHASE_BODY_PARTITION_H_
#define CHASE_CHASE_BODY_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "chase/instance.h"
#include "chase/join_cursor.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {

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

#endif  // CHASE_CHASE_BODY_PARTITION_H_
