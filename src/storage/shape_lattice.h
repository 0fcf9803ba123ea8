// The Apriori-style walk of the shape (partition) lattice of Section 5.4,
// factored out so the in-memory row store and the disk-backed pager can run
// identical query plans with their own EXISTS evaluators.
//
// The walk starts at the all-distinct id-tuple and explores coarser tuples
// breadth-first. For each candidate it first evaluates the relaxed query
// (equalities only); if that fails, every coarser tuple also fails and the
// subtree is pruned without touching the data. Otherwise the full query
// (equalities and disequalities) decides whether the exact shape is present.

#ifndef CHASE_STORAGE_SHAPE_LATTICE_H_
#define CHASE_STORAGE_SHAPE_LATTICE_H_

#include <functional>

#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/schema.h"
#include "logic/shape.h"

namespace chase {
namespace storage {

// Calls `emit(shape)` for every shape of `pred` (an id-tuple of length
// `arity`) whose full query succeeds, pruning via the relaxed query as
// described above. `exists(id, exact)` answers one query: the full one
// when `exact` is set, the relaxed one otherwise. The walk runs serially
// through chase::ExpandFrontier, one lattice depth at a time with each
// depth in ascending order, and fills `stats` when it is non-null. The
// first failed query ends the walk and its status is returned.
[[nodiscard]] Status WalkShapeLattice(
    PredId pred, uint32_t arity,
    const std::function<StatusOr<bool>(const IdTuple& id, bool exact)>&
        exists,
    const std::function<void(const Shape&)>& emit,
    FrontierStats* stats = nullptr);

// Calls `child(c)` for each immediate coarsening of `id` — every id-tuple
// obtained by merging two of its blocks. Distinct block pairs yield
// distinct partitions, so no child repeats within one call; children of
// different parents can coincide and must be deduplicated by the walker.
void ForEachChild(const IdTuple& id,
                  const std::function<void(IdTuple)>& child);

// The all-distinct id-tuple (1, 2, ..., arity): the lattice's top element,
// where every walk starts.
IdTuple AllDistinctIdTuple(uint32_t arity);

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_SHAPE_LATTICE_H_
