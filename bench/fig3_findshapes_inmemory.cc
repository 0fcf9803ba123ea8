// Figure 3: runtime of FindShapes, in-memory implementation, vs n-tuples.

#include "storage/shape_finder.h"

namespace {
constexpr chase::storage::ShapeFinderMode kFinderMode =
    chase::storage::ShapeFinderMode::kScan;
constexpr const char* kFigureTitle =
    "Figure 3: FindShapes runtime (in-memory) vs n-tuples";
}  // namespace

#include "findshapes_bench.inc"
