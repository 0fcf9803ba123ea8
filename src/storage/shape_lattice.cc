#include "storage/shape_lattice.h"

#include <vector>

#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/schema.h"
#include "logic/shape.h"

namespace chase {
namespace storage {

IdTuple AllDistinctIdTuple(uint32_t arity) {
  IdTuple all_distinct(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    all_distinct[i] = static_cast<uint8_t>(i + 1);
  }
  return all_distinct;
}

void ForEachChild(const IdTuple& id,
                  const std::function<void(IdTuple)>& child) {
  uint8_t blocks = 0;
  for (uint8_t v : id) blocks = v > blocks ? v : blocks;
  if (blocks <= 1) return;
  std::vector<uint32_t> representative(blocks + 1, UINT32_MAX);
  for (uint32_t i = 0; i < id.size(); ++i) {
    if (representative[id[i]] == UINT32_MAX) representative[id[i]] = i;
  }
  // 32-bit counters: with uint8_t and blocks == 255 (the Schema::kMaxArity
  // ceiling) `b <= blocks` would hold forever and wrap b through 0, reading
  // representative[0] == UINT32_MAX and indexing id out of bounds.
  for (uint32_t a = 1; a <= blocks; ++a) {
    for (uint32_t b = a + 1; b <= blocks; ++b) {
      child(MergeBlocks(id, representative[a], representative[b]));
    }
  }
}

Status WalkShapeLattice(
    PredId pred, uint32_t arity,
    const std::function<StatusOr<bool>(const IdTuple& id, bool exact)>&
        exists,
    const std::function<void(const Shape&)>& emit,
    FrontierStats* stats) {
  return ExpandFrontier<Shape, ShapeHash>(
      {Shape(pred, AllDistinctIdTuple(arity))},
      [&](const Shape& candidate, const auto& discover) -> Status {
        CHASE_ASSIGN_OR_RETURN(const bool relaxed,
                               exists(candidate.id, /*exact=*/false));
        if (!relaxed) return OkStatus();  // prunes every coarser shape
        CHASE_ASSIGN_OR_RETURN(const bool full,
                               exists(candidate.id, /*exact=*/true));
        if (full) emit(candidate);
        ForEachChild(candidate.id, [&](IdTuple child) {
          discover(Shape(pred, std::move(child)));
        });
        return OkStatus();
      },
      stats);
}

}  // namespace storage
}  // namespace chase
