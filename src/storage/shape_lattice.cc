#include "storage/shape_lattice.h"

#include "logic/shape.h"

#include <queue>
#include <unordered_set>
#include <vector>

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

void WalkShapeLattice(
    uint32_t arity,
    const std::function<bool(const IdTuple&)>& relaxed_exists,
    const std::function<bool(const IdTuple&)>& full_exists,
    const std::function<void(const IdTuple&)>& emit) {
  std::unordered_set<IdTuple, IdTupleHash> enqueued;
  std::queue<IdTuple> frontier;
  IdTuple all_distinct = AllDistinctIdTuple(arity);
  frontier.push(all_distinct);
  enqueued.insert(std::move(all_distinct));

  while (!frontier.empty()) {
    IdTuple id = std::move(frontier.front());
    frontier.pop();
    if (!relaxed_exists(id)) continue;
    if (full_exists(id)) emit(id);
    ForEachChild(id, [&](IdTuple child) {
      if (enqueued.insert(child).second) frontier.push(std::move(child));
    });
  }
}

}  // namespace storage
}  // namespace chase
