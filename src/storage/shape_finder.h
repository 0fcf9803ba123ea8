// FindShapes: computing shape(D), the set of shapes of the atoms of a
// database (Section 5.4), against any ShapeSource backend. The two query
// plans of the paper, each implemented exactly once:
//
//  * Scan mode (the paper's "in-memory" variant): one full strided scan per
//    relation, hashing the id-tuple of every tuple.
//  * Exists mode (the paper's "in-database" variant): one EXISTS query pair
//    per candidate shape, walking the shape lattice of each predicate from
//    the all-distinct shape towards coarser shapes with the Apriori-style
//    pruning of Section 5.4: a shape is only considered if some already-
//    confirmed relaxed query covers it, and if the relaxed (equalities-only)
//    query of a shape fails, every coarser shape is pruned without touching
//    the data.
//
// The scan mode runs work-partitioned in parallel (`threads` > 1): it
// splits relations into row ranges of roughly equal tuple counts and
// unions per-thread shape sets, over both backends — including
// pager::DiskDatabase. The exists mode is serial at any `threads`: it walks
// one predicate's lattice at a time, so consecutive probes scan the same
// relation and its pages stay resident in the buffer pool.
//
// All mode × backend × thread combinations return the same sorted set; a
// property test (tests/shape_source_test.cc) enforces this.

#ifndef CHASE_STORAGE_SHAPE_FINDER_H_
#define CHASE_STORAGE_SHAPE_FINDER_H_

#include <vector>

#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/shape.h"
#include "storage/catalog.h"
#include "storage/shape_source.h"

namespace chase {
namespace storage {

// The query plans. kScan and kExists are the paper's two (its "in-memory"
// and "in-database" variants); kIndex is the Section 10 deployment — build
// (or reuse) a sharded materialized shape index over the source and
// extract shape(D) from it, so repeated checks pay a dictionary extraction
// instead of a scan.
enum class ShapeFinderMode {
  kScan,
  kExists,
  kIndex,
};

const char* ShapeFinderModeName(ShapeFinderMode mode);

struct FindShapesOptions {
  ShapeFinderMode mode = ShapeFinderMode::kScan;
  // Scan threads of the scan plan and the index build; <= 1 runs
  // serially. The exists plan always runs serially (see EffectiveThreads).
  unsigned threads = 1;
  unsigned index_shards = 0;  // kIndex only: shard count (0 = default)
  // When non-null, the exists plan's lattice walks fill it: depths and
  // max_frontier are the maxima over the predicates' lattices, the other
  // counters their sums.
  FrontierStats* frontier_stats = nullptr;
};

// The number of threads `options` actually runs on: 1 for the exists plan,
// max(1, options.threads) for the scan and index plans.
unsigned EffectiveThreads(const FindShapesOptions& options);

// Mirrors one run's access-stats delta into the metrics registry on every
// exit path. The source's stats are cumulative for its lifetime, so the
// guard snapshots them at construction and publishes the difference on
// destruction. Shared by storage::FindShapes and the index-backed plan
// one layer up (index::FindShapes), so every plan meters identically.
class ScopedAccessStatsMirror {
 public:
  explicit ScopedAccessStatsMirror(const ShapeSource& source)
      : source_(source), before_(source.stats()) {}
  ~ScopedAccessStatsMirror();

  ScopedAccessStatsMirror(const ScopedAccessStatsMirror&) = delete;
  ScopedAccessStatsMirror& operator=(const ScopedAccessStatsMirror&) = delete;

 private:
  const ShapeSource& source_;
  AccessStats before_;
};

// The unified entry point: returns shape(D) sorted by (pred, id), computed
// over `source` with the requested plan and parallelism. Errors surface
// only from fallible backends (disk I/O); the in-memory backend never
// fails. The kIndex plan is dispatched one layer up by index::FindShapes
// (index/find_shapes.h) — passing it here is an InvalidArgument error,
// because storage/ sits below index/ in the layer DAG and cannot name the
// sharded index.
[[nodiscard]] StatusOr<std::vector<Shape>> FindShapes(
    const ShapeSource& source, const FindShapesOptions& options = {});

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_SHAPE_FINDER_H_
