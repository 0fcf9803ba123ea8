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
// driver (chunking, worker pool, metering) is ParallelTupleScan in the
// ShapeSource layer, shared with the sharded-index build.

Status ScanShapes(const ShapeSource& source,
                  const std::vector<PredId>& preds, unsigned threads,
                  WorkerPool* pool, ShapeSet* shapes) {
  std::vector<ShapeSet> local(threads);
  CHASE_RETURN_IF_ERROR(ParallelTupleScan(
      source, preds, threads,
      [&](unsigned t, PredId pred, std::span<const uint32_t> tuple) {
        local[t].insert(ShapeOfTuple(pred, tuple));
      },
      pool));
  for (unsigned t = 0; t < threads; ++t) shapes->merge(local[t]);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Exists plan: the Apriori lattice walk over EXISTS probes.

Status WalkShapesForPred(const ShapeSource& source, PredId pred,
                         AccessStats* stats, ShapeSet* shapes) {
  Status failure = OkStatus();
  auto probe = [&](const IdTuple& id, bool exact) {
    if (!failure.ok()) return false;  // abort the walk on the first error
    StatusOr<bool> found = ProbeShapeExists(source, pred, id, exact, stats);
    if (!found.ok()) {
      failure = found.status();
      return false;
    }
    return *found;
  };
  WalkShapeLattice(
      source.schema().Arity(pred),
      [&](const IdTuple& id) { return probe(id, /*exact=*/false); },
      [&](const IdTuple& id) { return probe(id, /*exact=*/true); },
      [&](const IdTuple& id) { shapes->insert(Shape(pred, id)); });
  return failure;
}

// Frontier-parallel exists plan: the lattices of every predicate form one
// global frontier of candidate shapes — seeded with each predicate's
// all-distinct tuple — that FrontierPool expands depth-synchronously. The
// probes of one depth are independent, so a single high-arity predicate
// (one huge lattice) spreads across the whole pool instead of pinning one
// worker, and pruning stays exact: a candidate only discovers its coarser
// children when its relaxed query succeeded, just like the serial walk.
Status WalkShapesFrontier(const ShapeSource& source,
                          const std::vector<PredId>& preds, unsigned threads,
                          WorkerPool* worker_pool, ShapeSet* shapes,
                          FrontierStats* frontier_stats) {
  struct Probe {
    bool present = false;
  };
  std::vector<Shape> seeds;
  seeds.reserve(preds.size());
  for (PredId pred : preds) {
    seeds.emplace_back(pred, AllDistinctIdTuple(source.schema().Arity(pred)));
  }

  std::vector<AccessStats> local_stats(threads);
  FrontierPool<Shape, Probe, ShapeHash> pool(
      {.threads = threads, .pool = worker_pool});
  const auto expand =
      [&](unsigned worker, const Shape& candidate, Probe* out,
          FrontierPool<Shape, Probe, ShapeHash>::Discoveries* discovered)
      -> Status {
    AccessStats* stats = &local_stats[worker];
    CHASE_ASSIGN_OR_RETURN(
        const bool relaxed,
        ProbeShapeExists(source, candidate.pred, candidate.id,
                         /*exact=*/false, stats));
    if (!relaxed) return OkStatus();  // prunes the whole subtree
    CHASE_ASSIGN_OR_RETURN(
        const bool full,
        ProbeShapeExists(source, candidate.pred, candidate.id,
                         /*exact=*/true, stats));
    out->present = full;
    ForEachChild(candidate.id, [&](IdTuple child) {
      discovered->Discover(Shape(candidate.pred, std::move(child)));
    });
    return OkStatus();
  };
  // Shape inserts are associative and commutative (the caller sorts on
  // extraction), so each depth's confirmed shapes are absorbed per-chunk on
  // the pool into worker-private sets merged once at the end — nothing of
  // the depth's tail runs serially between barriers.
  std::vector<ShapeSet> local_shapes(threads);
  const Status status = pool.RunParallelAbsorb(
      std::move(seeds), expand,
      [&](unsigned worker, std::span<const Shape> frontier,
          std::span<Probe> outs) -> Status {
        for (size_t i = 0; i < frontier.size(); ++i) {
          if (outs[i].present) local_shapes[worker].insert(frontier[i]);
        }
        return OkStatus();
      },
      frontier_stats);
  for (unsigned t = 0; t < threads; ++t) {
    shapes->merge(local_shapes[t]);
    source.stats().MergeFrom(local_stats[t]);
  }
  return status;
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

StatusOr<std::vector<Shape>> FindShapes(const ShapeSource& source,
                                        const FindShapesOptions& options) {
  // A caller-owned pool overrides the thread count — the plans dispatch on
  // the threads that will actually run, and every plan returns the same
  // set at any thread count, so sharing a pool never changes results.
  const unsigned threads = options.pool != nullptr
                               ? std::max(1u, options.pool->threads())
                               : std::max(1u, options.threads);
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
  Status status = OkStatus();
  if (options.mode == ShapeFinderMode::kScan) {
    status = ScanShapes(source, preds, threads, options.pool, &shapes);
  } else if (threads == 1) {
    // The serial reference walk — the oracle the frontier-parallel plan is
    // differentially tested against (tests/frontier_equivalence_test.cc).
    for (PredId pred : preds) {
      status = WalkShapesForPred(source, pred, &source.stats(), &shapes);
      if (!status.ok()) break;
    }
  } else {
    status = WalkShapesFrontier(source, preds, threads, options.pool,
                                &shapes, options.frontier_stats);
  }
  CHASE_RETURN_IF_ERROR(status);
  return Sorted(std::move(shapes));
}

}  // namespace storage
}  // namespace chase
