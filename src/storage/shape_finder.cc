#include "storage/shape_finder.h"

#include <algorithm>

#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/shape_lattice.h"
#include "storage/shape_source.h"

namespace chase {
namespace storage {
namespace {

std::vector<Shape> Sorted(ShapeSet shapes) {
  std::vector<Shape> out(std::make_move_iterator(shapes.begin()),
                         std::make_move_iterator(shapes.end()));
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Scan plan: full strided scans, hashing every tuple's id-tuple. The scan
// driver (chunking, worker threads, metering) is ParallelTupleScan in the
// ShapeSource layer, shared with the sharded-index build.

Status ScanShapes(const ShapeSource& source,
                  const std::vector<PredId>& preds, unsigned threads,
                  ShapeSet* shapes) {
  std::vector<ShapeSet> local(threads);
  CHASE_RETURN_IF_ERROR(ParallelTupleScan(
      source, preds, threads,
      [&](unsigned t, PredId pred, std::span<const uint32_t> tuple) {
        local[t].insert(ShapeOfTuple(pred, tuple));
      }));
  for (unsigned t = 0; t < threads; ++t) shapes->merge(local[t]);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Exists plan: the Apriori lattice walk over EXISTS probes, one predicate
// at a time.

Status WalkShapesForPred(const ShapeSource& source, PredId pred,
                         ShapeSet* shapes, FrontierStats* stats) {
  return WalkShapeLattice(
      pred, source.schema().Arity(pred),
      [&](const IdTuple& id, bool exact) {
        return ProbeShapeExists(source, pred, id, exact);
      },
      [&](const Shape& shape) { shapes->insert(shape); }, stats);
}

// Folds one predicate's walk into the plan's totals.
void AddWalkStats(const FrontierStats& walk, FrontierStats* total) {
  total->depths = std::max(total->depths, walk.depths);
  total->max_frontier = std::max(total->max_frontier, walk.max_frontier);
  total->seeds_admitted += walk.seeds_admitted;
  total->items_expanded += walk.items_expanded;
  total->items_discovered += walk.items_discovered;
}

}  // namespace

ScopedAccessStatsMirror::~ScopedAccessStatsMirror() {
  if (!obs::MetricsRegistry::enabled()) return;
  const AccessStats& now = source_.stats();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("storage.catalog_queries")
      ->Add(now.catalog_queries - before_.catalog_queries);
  registry.GetCounter("storage.exists_queries")
      ->Add(now.exists_queries - before_.exists_queries);
  registry.GetCounter("storage.tuples_scanned")
      ->Add(now.tuples_scanned - before_.tuples_scanned);
  registry.GetCounter("storage.relations_loaded")
      ->Add(now.relations_loaded - before_.relations_loaded);
}

const char* ShapeFinderModeName(ShapeFinderMode mode) {
  switch (mode) {
    case ShapeFinderMode::kScan:
      return "scan";
    case ShapeFinderMode::kExists:
      return "exists";
    case ShapeFinderMode::kIndex:
      return "index";
  }
  return "?";
}

unsigned EffectiveThreads(const FindShapesOptions& options) {
  return options.mode == ShapeFinderMode::kExists
             ? 1
             : std::max(1u, options.threads);
}

StatusOr<std::vector<Shape>> FindShapes(const ShapeSource& source,
                                        const FindShapesOptions& options) {
  const unsigned threads = EffectiveThreads(options);
  obs::TraceSpan find_span("storage", "find_shapes", "mode",
                           static_cast<int64_t>(options.mode), "threads",
                           static_cast<int64_t>(threads));
  // Mirror this run's access-stats delta into the metrics registry on
  // every exit path.
  ScopedAccessStatsMirror stats_mirror(source);
  if (options.mode == ShapeFinderMode::kIndex) {
    // The index-backed plan lives one layer up (index::FindShapes in
    // index/find_shapes.h): storage sits below index/ in the layer DAG,
    // so this dispatcher cannot name ShardedShapeIndex.
    return InvalidArgumentError(
        "ShapeFinderMode::kIndex is dispatched by index::FindShapes "
        "(include index/find_shapes.h); storage::FindShapes serves only "
        "the scan and exists plans");
  }
  const std::vector<PredId> preds = source.NonEmptyRelations();
  ShapeSet shapes;
  if (options.mode == ShapeFinderMode::kScan) {
    CHASE_RETURN_IF_ERROR(ScanShapes(source, preds, threads, &shapes));
  } else {
    FrontierStats total;
    Status status = OkStatus();
    for (PredId pred : preds) {
      FrontierStats walk;
      status = WalkShapesForPred(source, pred, &shapes, &walk);
      AddWalkStats(walk, &total);
      if (!status.ok()) break;
    }
    total.worker_expanded.assign(1, total.items_expanded);
    if (options.frontier_stats != nullptr) *options.frontier_stats = total;
    CHASE_RETURN_IF_ERROR(status);
  }
  return Sorted(std::move(shapes));
}

}  // namespace storage
}  // namespace chase
