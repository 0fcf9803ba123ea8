#include "index/find_shapes.h"

#include "base/status.h"
#include "index/sharded_shape_index.h"
#include "logic/shape.h"
#include "obs/trace.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace index {

StatusOr<std::vector<Shape>> FindShapes(
    const storage::ShapeSource& source,
    const storage::FindShapesOptions& options) {
  if (options.mode != storage::ShapeFinderMode::kIndex) {
    return storage::FindShapes(source, options);
  }
  const unsigned threads = storage::EffectiveThreads(options);
  obs::TraceSpan find_span("storage", "find_shapes", "mode",
                           static_cast<int64_t>(options.mode), "threads",
                           static_cast<int64_t>(threads));
  // Same metering as storage::FindShapes: publish this run's access-stats
  // delta on every exit path.
  storage::ScopedAccessStatsMirror stats_mirror(source);
  CHASE_ASSIGN_OR_RETURN(
      ShardedShapeIndex idx,
      ShardedShapeIndex::Build(source,
                               {options.index_shards, threads}));
  return idx.CurrentShapes();
}

}  // namespace index
}  // namespace chase
