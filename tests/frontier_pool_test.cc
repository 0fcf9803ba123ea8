// Suite for the execution helpers of exec/frontier_pool.h: the serial
// frontier expansion (canonical depth order, duplicate admission, error
// abort), ParallelFor's index coverage under ThreadSanitizer (the CHASE_TSAN
// CI job builds and runs this suite), and the three adversarial lattice
// profiles of the exists plan — a wide shallow frontier, a narrow deep one,
// and one giant predicate — each checked against the scan plan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "exec/frontier_pool.h"
#include "gen/data_generator.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_lattice.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using storage::FindShapes;
using storage::ShapeFinderMode;

TEST(FrontierPoolTest, ExpandsEachDepthInAscendingOrder) {
  // A binary tree: item i < 64 discovers 2i+1 and 2i+2. Seeds arrive
  // unsorted and repeated; the expansion sequence must be the tree's
  // levels, each ascending, every item once.
  std::vector<uint64_t> expanded;
  FrontierStats stats;
  Status status = ExpandFrontier<uint64_t>(
      {2, 0, 1, 2, 0},
      [&](const uint64_t& item, const auto& discover) -> Status {
        expanded.push_back(item);
        if (item < 64) {
          discover(2 * item + 2);
          discover(2 * item + 1);
        }
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status;
  // Seeds {0, 1, 2}; 0 discovers 1 and 2 again, which are already seen.
  std::vector<uint64_t> expected = {0, 1, 2};
  for (uint64_t first = 3, width = 4; first <= 128; first += width, width *= 2) {
    for (uint64_t item = first; item < first + width && item <= 128; ++item) {
      expected.push_back(item);
    }
  }
  EXPECT_EQ(expanded, expected);
  EXPECT_EQ(stats.seeds_admitted, 3u);
  EXPECT_EQ(stats.items_expanded, 129u);
  EXPECT_EQ(stats.items_discovered, 126u);
  EXPECT_EQ(stats.depths, 7u);
  EXPECT_EQ(stats.max_frontier, 64u);
  ASSERT_EQ(stats.worker_expanded.size(), 1u);
  EXPECT_EQ(stats.worker_expanded[0], stats.items_expanded);
}

TEST(FrontierPoolTest, DuplicateDiscoveriesAdmitExactlyOnce) {
  // Every seed discovers the SAME successor set: the seen filter must admit
  // each successor exactly once.
  std::vector<uint64_t> seeds(64);
  std::iota(seeds.begin(), seeds.end(), uint64_t{1000});
  uint64_t expansions = 0;
  FrontierStats stats;
  Status status = ExpandFrontier<uint64_t>(
      std::move(seeds),
      [&](const uint64_t& item, const auto& discover) -> Status {
        ++expansions;
        if (item >= 1000) {
          for (uint64_t succ = 0; succ < 32; ++succ) discover(succ);
        }
        return OkStatus();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(expansions, 64u + 32u);
  EXPECT_EQ(stats.items_discovered, 32u);
  EXPECT_EQ(stats.depths, 2u);
}

TEST(FrontierPoolTest, ExpansionErrorsAbortTheRun) {
  // Seed 0 is poisoned and sorts first: the run stops at it, expands
  // nothing after it, and still reports its stats.
  std::vector<uint64_t> seeds(4096);
  std::iota(seeds.begin(), seeds.end(), uint64_t{0});
  uint64_t expansions = 0;
  FrontierStats stats;
  Status status = ExpandFrontier<uint64_t>(
      std::move(seeds),
      [&](const uint64_t& item, const auto& discover) -> Status {
        ++expansions;
        if (item == 0) return InternalError("poisoned item");
        discover(item + 4096);
        return OkStatus();
      },
      &stats);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(expansions, 1u);
  EXPECT_EQ(stats.items_expanded, 1u);
  ASSERT_EQ(stats.worker_expanded.size(), 1u);
  EXPECT_EQ(stats.worker_expanded[0], 1u);
  EXPECT_EQ(stats.seeds_admitted, 4096u);
  EXPECT_EQ(stats.depths, 1u);
}

TEST(FrontierPoolTest, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 3u, 8u, 16u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{10'000}}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      std::atomic<bool> bad_worker{false};
      ParallelFor(threads, n, [&](unsigned worker, size_t index) {
        if (worker >= threads) bad_worker.store(true);
        hits[index].fetch_add(1);
      });
      EXPECT_FALSE(bad_worker.load()) << threads << " threads";
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u)
            << "index " << i << " of " << n << ", " << threads << " threads";
      }
    }
  }
}

TEST(FrontierPoolTest, ForEachChildHandlesMaxArity) {
  // Regression: with uint8_t loop counters, blocks == 255 (the
  // Schema::kMaxArity ceiling) wrapped `b` through 0 — an out-of-bounds
  // MergeBlocks read and an infinite loop. The top of the arity-255
  // lattice must yield exactly C(255, 2) children and terminate.
  const IdTuple top = storage::AllDistinctIdTuple(255);
  size_t children = 0;
  storage::ForEachChild(top, [&](IdTuple child) {
    ASSERT_EQ(child.size(), 255u);
    ++children;
  });
  EXPECT_EQ(children, 255u * 254u / 2u);
}

// --------------------------------------------------------------------------
// The three adversarial shape-lattice profiles, through the real consumer:
// the exists plan's lattice walk must find exactly the scan plan's shapes.

void ExpectExistsMatchesScan(const DataGenParams& params, const char* label) {
  auto data = GenerateData(params);
  ASSERT_TRUE(data.ok()) << data.status();
  storage::Catalog catalog(data->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto scan = FindShapes(memory, {ShapeFinderMode::kScan, 4});
  ASSERT_TRUE(scan.ok()) << scan.status();
  FrontierStats stats;
  storage::FindShapesOptions options{ShapeFinderMode::kExists, 4};
  options.frontier_stats = &stats;
  auto exists = FindShapes(memory, options);
  ASSERT_TRUE(exists.ok()) << exists.status();
  EXPECT_EQ(*exists, *scan) << label;
  EXPECT_EQ(stats.seeds_admitted, memory.NonEmptyRelations().size()) << label;
  EXPECT_EQ(stats.items_expanded,
            stats.seeds_admitted + stats.items_discovered)
      << label;
  ASSERT_EQ(stats.worker_expanded.size(), 1u) << label;
  EXPECT_EQ(stats.worker_expanded[0], stats.items_expanded) << label;
}

TEST(FrontierPoolTest, WideShallowLattice) {
  // Many low-arity predicates: many small lattices, each drained in a
  // couple of depths.
  DataGenParams params;
  params.preds = 40;
  params.min_arity = 1;
  params.max_arity = 3;
  params.dsize = 64;
  params.rsize = 200;
  params.seed = 11;
  ExpectExistsMatchesScan(params, "wide-shallow");
}

TEST(FrontierPoolTest, NarrowDeepLattice) {
  // One high-arity predicate over a tiny repeated domain: the walk starts
  // from a single item and descends many merge levels.
  DataGenParams params;
  params.preds = 1;
  params.min_arity = 7;
  params.max_arity = 7;
  params.dsize = 64;
  params.rsize = 30;
  params.seed = 12;
  ExpectExistsMatchesScan(params, "narrow-deep");
}

TEST(FrontierPoolTest, SingleGiantPredicate) {
  // One predicate, one big relation, one large lattice.
  DataGenParams params;
  params.preds = 1;
  params.min_arity = 6;
  params.max_arity = 6;
  params.dsize = 64;
  params.rsize = 5'000;
  params.seed = 13;
  ExpectExistsMatchesScan(params, "single-giant");
}

}  // namespace
}  // namespace chase
