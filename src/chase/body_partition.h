// Partitioning the body-homomorphism space of multi-atom TGDs for parallel
// trigger enumeration (the K-Join recipe adapted to the chase's semi-naive
// rounds).
//
// The serial engine enumerates the triggers of a round by streaming, for
// each rule and each delta position d, a join over the body atoms
// (chase/join_cursor.h): position 0 is the outermost loop, each position's
// candidate rows are a contiguous range fixed by the round window (delta
// rows at d, the previous-rounds prefix before d, the full round-start
// prefix after d), visited in ascending order whether scanned or narrowed
// by a posting index.
// Parallelizing that stream without giving up the bit-identical-result
// contract hinges on one property: the serial order is the lexicographic
// order of (rule, delta position, row at position 0, row at position 1, …).
// So instead of hash-partitioning a join variable — which deals rows of one
// loop level round-robin across partitions and interleaves their outputs in
// the streaming order — the planner splits candidate *ranges*:
//
//  * every (rule, delta position) task splits on its outermost loop, the
//    position-0 candidate range (for d == 0 that is the delta range the
//    linear path already split; for d > 0 it is the previous-rounds
//    prefix);
//  * when one position-0 row is still heavier than the grain (a hot row
//    whose inner join cross-products against whole relations — the
//    non-linear analogue of the high-arity predicate PR 4 unpinned), the
//    row is pinned and the position-1 candidate range is split under it.
//
// Concatenating the fragments in (rule, delta_pos, begin0, begin1) order —
// the order PlanBodyPartitions emits them — replays the serial stream
// exactly, so the apply loop needs no merge and no order keys. Fragment
// sizing uses estimated enumeration cost (the product of candidate-range
// sizes, saturating), with the usual grain of a few fragments per worker;
// the per-row split is self-limiting: a row only splits when its inner cost
// exceeds the grain, and at most ~4·threads such rows fit in the round's
// total cost, so fragment counts stay O(tasks + threads²).
//
// HomEnumerator is the resumable cursor over one fragment: a JoinCursor —
// a paused iterative backtracking search (per-position row cursors +
// binding trail) that Next() advances one homomorphism at a time — whose
// windows are the fragment's ranges. The serial round runs it over one
// whole-range fragment per task, so both paths share it. The chase's
// budgeted enumerate→pause→apply→resume protocol
// (WorkerPool::RunBudgetedTasks) leans on Next() being stoppable anywhere:
// a worker fills a bounded buffer, parks, and later resumes from the exact
// backtracking state.

#ifndef CHASE_CHASE_BODY_PARTITION_H_
#define CHASE_CHASE_BODY_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "chase/instance.h"
#include "chase/join_cursor.h"
#include "logic/atom.h"
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

// One fragment of a (rule, delta position) task's homomorphism space: a
// contiguous sub-range of the position-0 candidate rows, and — for a
// join-split fragment pinning a single hot position-0 row — a contiguous
// sub-range of the position-1 candidate rows. Positions >= 2 (and position
// 1 of non-join-split fragments, where [begin1, end1) just restates the
// full range) always cover their full round-window range.
struct BodyPartition {
  uint32_t rule = 0;
  uint32_t delta_pos = 0;
  size_t begin0 = 0;
  size_t end0 = 0;
  size_t begin1 = 0;  // meaningful only when the body has >= 2 atoms
  size_t end1 = 0;
};

// Plans the round's fragments in canonical (rule, delta_pos, begin0,
// begin1) order — exactly the serial streaming order of their outputs.
// Tasks where some position has no candidate row produce no fragment;
// threads <= 1 plans one whole-range fragment per remaining task (the
// serial round). Depends only on `tgds`, the round window, and `threads`
// (never on instance contents or scheduling), so the plan itself is
// deterministic.
std::vector<BodyPartition> PlanBodyPartitions(const std::vector<Tgd>& tgds,
                                              const RoundView& view,
                                              unsigned threads);

// The resumable enumeration cursor over one fragment: a JoinCursor over
// the rule body whose position windows are the fragment's ranges. Usage:
//
//   HomEnumerator e;
//   e.Reset(&tgd, body_ids, &instance, &view, part);
//   while (e.Next()) consume(e.hom());   // pausable between any two calls
//
// Next() returns true with hom() bound on all universal variables (the
// fragment's next homomorphism in streaming order), false when the fragment
// is exhausted. `body_ids` is the rule body's PlanJoin over `instance`'s
// indexes. Windows never reach past the round-start watermark, so appends
// between resume epochs are invisible to the enumeration (see JoinCursor
// for why they are safe).
class HomEnumerator {
 public:
  void Reset(const Tgd* tgd, std::span<const uint32_t> body_ids,
             const Instance* instance, const RoundView* view,
             const BodyPartition& part);

  // Advances to the fragment's next homomorphism. False once exhausted
  // (then stays false).
  bool Next() {
    if (!cursor_.Next()) return false;
    ++homs_;
    return true;
  }

  const std::vector<Term>& hom() { return cursor_.h(); }

  // Work done since construction, over every Reset: candidate rows probed
  // and homomorphisms emitted. A join-split fragment other than the first
  // under its pinned position-0 row does not count that row's probe, so
  // the fragments of a task sum to exactly the serial whole-range count.
  uint64_t rows_probed() const {
    return cursor_.rows_probed() - repeated_root_probes_;
  }
  uint64_t homs() const { return homs_; }

 private:
  JoinCursor cursor_;
  std::vector<JoinCursor::Window> windows_;
  uint64_t homs_ = 0;
  uint64_t repeated_root_probes_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_BODY_PARTITION_H_
