// Execution helpers for the Section 5.4 algorithms.
//
// Two of those algorithms share one control shape: a frontier of items is
// expanded, expansion discovers successor items, successors that were never
// seen before form the next frontier, repeat until the frontier drains. The
// Apriori walk of one predicate's shape lattice (items = id-tuples,
// successors = coarser id-tuples) and the dynamic-simplification worklist
// (items = derived shapes, successors = head shapes) are both instances.
// ExpandFrontier runs that shape serially, one depth at a time, in a
// canonical order: the seeds are deduplicated and sorted, and each depth's
// fresh discoveries are sorted before they are expanded. Anything a caller
// accumulates while expanding (emitted TGDs, interned predicates) therefore
// depends only on the seeds and the expansion function.
//
// The one parallel primitive is ParallelFor, through which the
// work-partitioned tuple scan (storage::ParallelTupleScan) deals its row
// ranges to threads spawned for that call.

#ifndef CHASE_EXEC_FRONTIER_POOL_H_
#define CHASE_EXEC_FRONTIER_POOL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {

// Runs work(worker, index) for every index in [0, n) on `threads` threads:
// the caller is worker 0 and threads-1 workers are spawned for this call
// and joined before it returns. The index space is cut into chunks of
// roughly equal size, a few per thread, dealt dynamically in ascending
// order, so uneven per-index cost still balances. Within one worker,
// indices ascend per chunk; across workers, any interleaving — `work` must
// write only to index-private or worker-private state, or synchronize.
// threads <= 1 or n <= 1 runs inline on the calling thread.
void ParallelFor(unsigned threads, size_t n,
                 const std::function<void(unsigned worker, size_t index)>& work);

// Counters of one ExpandFrontier run, populated on every exit path (error
// returns included). items_expanded counts the expansions that actually
// ran; worker_expanded holds the same count per worker — one entry, since
// the run is serial.
struct FrontierStats {
  uint64_t depths = 0;            // frontier waves expanded
  uint64_t seeds_admitted = 0;    // unique seeds (duplicates are dropped)
  uint64_t items_expanded = 0;    // unique items actually expanded
  uint64_t items_discovered = 0;  // successors admitted past the seen filter
  uint64_t max_frontier = 0;      // widest single depth
  std::vector<uint64_t> worker_expanded;
};

// Expands from `seeds` until the frontier drains. `expand(item, discover)`
// returns a Status and reports each successor through `discover(Item)`; a
// successor enters the next frontier unless it was seen before (as a seed
// or as an earlier discovery). Items are expanded depth by depth, each
// depth in ascending order, so the expansion sequence is canonical. The
// first non-OK status ends the run and is returned. Item must be hashable
// by Hash, equality-comparable and ordered by operator<.
template <typename Item, typename Hash = std::hash<Item>, typename Expand>
[[nodiscard]] Status ExpandFrontier(std::vector<Item> seeds,
                                    const Expand& expand,
                                    FrontierStats* stats = nullptr) {
  FrontierStats local_stats;
  FrontierStats& out = stats != nullptr ? *stats : local_stats;
  out = FrontierStats();

  std::unordered_set<Item, Hash> seen;
  std::vector<Item> frontier;
  frontier.reserve(seeds.size());
  for (Item& seed : seeds) {
    if (seen.insert(seed).second) frontier.push_back(std::move(seed));
  }
  std::sort(frontier.begin(), frontier.end());
  out.seeds_admitted = frontier.size();

  std::vector<Item> next;
  const auto discover = [&](Item item) {
    if (seen.insert(item).second) next.push_back(std::move(item));
  };
  // Wrapped so that every exit path, error or drained frontier, falls
  // through the stats finalization below.
  const auto run_depths = [&]() -> Status {
    while (!frontier.empty()) {
      obs::TraceSpan depth_span("frontier", "depth", "depth",
                                static_cast<int64_t>(out.depths), "width",
                                static_cast<int64_t>(frontier.size()));
      ++out.depths;
      out.max_frontier = std::max<uint64_t>(out.max_frontier, frontier.size());
      for (const Item& item : frontier) {
        ++out.items_expanded;
        CHASE_RETURN_IF_ERROR(expand(item, discover));
      }
      std::sort(next.begin(), next.end());
      out.items_discovered += next.size();
      frontier.swap(next);
      next.clear();
    }
    return OkStatus();
  };
  const Status status = run_depths();
  out.worker_expanded.assign(1, out.items_expanded);
  // Mirror into the metrics registry: counters accumulate across every
  // frontier run of the session; the gauge keeps the widest frontier any
  // run reached.
  if (obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    registry.GetCounter("frontier.runs")->Add(1);
    registry.GetCounter("frontier.depths")->Add(out.depths);
    registry.GetCounter("frontier.seeds_admitted")->Add(out.seeds_admitted);
    registry.GetCounter("frontier.items_expanded")->Add(out.items_expanded);
    registry.GetCounter("frontier.items_discovered")
        ->Add(out.items_discovered);
    registry.MaxGauge("frontier.max_frontier",
                      static_cast<double>(out.max_frontier));
  }
  return status;
}

}  // namespace chase

#endif  // CHASE_EXEC_FRONTIER_POOL_H_
