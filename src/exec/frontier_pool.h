// A depth-synchronous parallel frontier-expansion engine.
//
// Several of the Section 5.4 algorithms share one control shape: a frontier
// of independent items is expanded, expansion discovers successor items,
// successors that were never seen before form the next frontier, repeat
// until the frontier drains. The Apriori walk of the shape lattice (items =
// candidate shapes, successors = coarser shapes) and the dynamic-
// simplification worklist (items = derived shapes, successors = head
// shapes) are both instances.
//
// Items at the same depth are independent by construction, so the engine
// expands each depth in parallel and barriers between depths:
//
//  * the workers are spawned ONCE — by the WorkerPool below — and reused
//    across depths through a generation-counted condvar barrier, so a
//    workload of many shallow depths (dynamic simplification) pays a
//    wakeup per depth, not a thread spawn+join per depth;
//  * each depth's frontier is split into chunks dealt dynamically to the
//    pool (the same range-partitioned chunking discipline as
//    storage::ParallelTupleScan), so one expensive item cannot pin the
//    whole depth on a single worker;
//  * discovered successors pass through a shared seen-set under striped
//    latches — the first discoverer admits an item, every later discovery
//    is dropped — and per-worker fresh-item lists are merged and sorted
//    after the barrier, so the next frontier is canonical (duplicate-free,
//    ascending) regardless of thread count or scheduling;
//  * per-item outputs are written into a per-depth slot vector and handed
//    to a serial `absorb` callback in frontier order, so anything the
//    caller accumulates (emitted TGDs, interned predicates) is ordered
//    identically to a single-threaded run. Consumers whose absorption is
//    associative and commutative (set inserts) can instead opt into a
//    parallel absorb that runs per-chunk on the same pool — see
//    RunParallelAbsorb.
//
// The net contract: Run with N threads produces bit-identical results to
// Run with 1 thread (which executes inline on the calling thread, with no
// pool and no latching). tests/frontier_equivalence_test.cc holds the
// consumers to it; tests/frontier_pool_test.cc stresses the engine itself
// under ThreadSanitizer.

#ifndef CHASE_EXEC_FRONTIER_POOL_H_
#define CHASE_EXEC_FRONTIER_POOL_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "base/padded.h"
#include "base/status.h"
#include "base/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {

// The one chunk-size heuristic behind every dealing site: roughly a few
// chunks per thread, so dynamically dealt chunks still balance uneven
// per-index cost. This is also the deterministic-boundary rule the
// parallel-absorb contract documents (chunk boundaries depend only on the
// index-space size and the thread count) — keep every copy of the formula
// here so the sites cannot drift apart.
inline size_t FrontierChunkSize(size_t n, unsigned threads) {
  return std::max<size_t>(1, n / (4 * std::max(1u, threads)));
}

// A persistent pool of worker threads with a reusable start/finish barrier.
// Construction spawns threads-1 workers (the thread calling ParallelFor
// always participates as worker 0); every ParallelFor reuses them, so a
// caller that loops — depths of a frontier walk — pays one condvar
// round-trip per iteration instead of a thread spawn and join. The
// barrier is a generation counter: workers sleep until the
// epoch advances, run the dealt chunks of that epoch, and report back;
// ParallelFor returns once every worker has reported, so task state can be
// reused for the next epoch without further synchronization.
class WorkerPool {
 public:
  // threads <= 1 spawns no workers; ParallelFor then runs inline.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned threads() const { return threads_; }

  // Runs work(worker, index) for every index in [0, n), partitioning the
  // index space into chunks of roughly equal size (a few per thread) dealt
  // dynamically, so uneven per-index cost still balances. Blocks until all
  // dealt indices ran. Within one worker, indices ascend per chunk; across
  // workers, any interleaving — callers must write only to index-private
  // or worker-private state, or synchronize. Not reentrant: one
  // ParallelFor at a time per pool.
  //
  // If `abort` is non-null, no further chunk is claimed once it reads
  // true; indices of already-claimed chunks still run, so `work` must
  // check the flag itself where per-index stop matters.
  //
  // Chunks are claimed in ascending index order (a single fetch_add
  // counter), so the index space drains front-to-back.
  void ParallelFor(size_t n,
                   const std::function<void(unsigned worker, size_t index)>& work,
                   const std::atomic<bool>* abort = nullptr);

 private:
  void Loop(unsigned worker);
  // Reads the epoch's task fields (n_, chunk_, work_, abort_) without mu_:
  // they are written under mu_ before the epoch advances and read only by
  // workers that observed the new epoch under mu_, so the barrier itself
  // orders the accesses. The analysis cannot see that handoff, hence the
  // opt-out.
  void RunChunks(unsigned worker) NO_THREAD_SAFETY_ANALYSIS;

  const unsigned threads_;
  Mutex mu_;
  CondVar start_cv_;  // wakes workers on an epoch advance
  CondVar done_cv_;   // wakes ParallelFor when all report
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  // Workers still inside the current epoch.
  unsigned running_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  // The current task. Written under mu_ before the epoch advances, read by
  // workers after they observe the new epoch under mu_ — so the reads in
  // RunChunks outside the latch are ordered by the barrier itself.
  size_t n_ GUARDED_BY(mu_) = 0;
  size_t chunk_ GUARDED_BY(mu_) = 1;
  const std::function<void(unsigned, size_t)>* work_ GUARDED_BY(mu_) =
      nullptr;
  const std::atomic<bool>* abort_ GUARDED_BY(mu_) = nullptr;
  std::atomic<size_t> next_{0};
  std::vector<std::thread> workers_;
};

// Counters reported by FrontierPool::Run. worker_expanded proves how the
// frontier itself was split: with one giant work item source (e.g. a single
// high-arity predicate's lattice), multiple non-zero entries mean multiple
// workers expanded parts of it. Populated on every exit path, error
// returns included, with items_expanded always equal to the number of
// `expand` invocations that actually ran (= the sum of worker_expanded).
struct FrontierStats {
  uint64_t depths = 0;           // number of synchronized frontier waves
  uint64_t seeds_admitted = 0;   // unique seeds (duplicates are dropped)
  uint64_t items_expanded = 0;   // unique items actually expanded
  uint64_t items_discovered = 0;  // successors admitted past the seen filter
  uint64_t max_frontier = 0;     // widest single depth
  std::vector<uint64_t> worker_expanded;  // per-worker expansion counts
};

// The engine. Item must be hashable (Hash), equality-comparable (for the
// seen-set) and strict-weak ordered by operator< (for the canonical
// per-depth sort); Out must be default-constructible.
template <typename Item, typename Out, typename Hash = std::hash<Item>>
class FrontierPool {
 public:
  struct Options {
    unsigned threads = 1;  // <= 1 expands inline, no pool, no latching
    // When non-null, depths run on this caller-owned persistent pool (its
    // thread count wins over `threads`), so several engine runs — or an
    // engine run and other parallel phases of the same algorithm — share
    // one set of workers. Otherwise Run spawns its own pool, once for the
    // whole run.
    WorkerPool* pool = nullptr;
  };

  // Successor sink handed to each expansion. Thread-confined: a worker only
  // ever touches its own fresh-item list; the shared seen-set underneath is
  // striped-latched.
  class Discoveries {
   public:
    // Admits `item` into the next frontier unless some expansion (this
    // depth or any earlier one) already discovered it.
    void Discover(Item item) {
      if (seen_->Insert(item)) fresh_->push_back(std::move(item));
    }

   private:
    friend class FrontierPool;
    class SeenSet;
    Discoveries(SeenSet* seen, std::vector<Item>* fresh)
        : seen_(seen), fresh_(fresh) {}
    SeenSet* seen_;
    std::vector<Item>* fresh_;
  };

  // Expands one item: fills `out` (absorbed after the depth barrier) and
  // reports successors through `discovered`. Runs concurrently with other
  // expansions of the same depth; `worker` in [0, threads) indexes any
  // caller-side thread-local state. A non-OK status aborts the run: no
  // further expansion starts anywhere in the pool (a shared abort flag
  // stops both chunk dealing and the per-index dispatch), the depth's
  // in-flight expansions finish, and Run returns the error without
  // absorbing the failed depth.
  using ExpandFn = std::function<Status(unsigned worker, const Item& item,
                                        Out* out, Discoveries* discovered)>;

  // Consumes one depth's outputs serially, items in canonical (ascending)
  // order. Runs on the calling thread between depth barriers.
  using AbsorbFn =
      std::function<Status(std::span<const Item> frontier,
                           std::span<Out> outs)>;

  // The opt-in parallel absorb: consumes one deterministic contiguous
  // chunk of a depth's canonical frontier. Chunk boundaries depend only on
  // the frontier size and the thread count — never on scheduling — but
  // calls run concurrently on the pool and in arbitrary chunk order, so a
  // consumer opting in guarantees its absorption is associative and
  // commutative across chunks (e.g. inserts into a set whose final
  // extraction is sorted). `worker` indexes caller-side thread-local
  // accumulators: calls for the same worker never overlap.
  using ParallelAbsorbFn =
      std::function<Status(unsigned worker, std::span<const Item> frontier,
                           std::span<Out> outs)>;

  explicit FrontierPool(Options options) : options_(options) {}

  // Expands from `seeds` (duplicates dropped, order irrelevant) until the
  // frontier drains. Deterministic: the frontier contents of every depth,
  // the absorb call sequence, and the final seen-set depend only on the
  // seeds and the expansion function, never on thread count or scheduling.
  [[nodiscard]] Status Run(std::vector<Item> seeds, const ExpandFn& expand,
             const AbsorbFn& absorb, FrontierStats* stats = nullptr) {
    return RunImpl(std::move(seeds), expand, &absorb, nullptr, stats);
  }

  // As Run, but each depth is absorbed per-chunk on the pool through
  // `absorb` (see ParallelAbsorbFn for the associativity contract the
  // caller signs up to). The expansion side — frontiers, seen-set,
  // discovery — is deterministic exactly as in Run.
  [[nodiscard]]
  Status RunParallelAbsorb(std::vector<Item> seeds, const ExpandFn& expand,
                           const ParallelAbsorbFn& absorb,
                           FrontierStats* stats = nullptr) {
    return RunImpl(std::move(seeds), expand, nullptr, &absorb, stats);
  }

 private:
  [[nodiscard]] Status RunImpl(std::vector<Item> seeds, const ExpandFn& expand,
                 const AbsorbFn* absorb, const ParallelAbsorbFn* par_absorb,
                 FrontierStats* stats) {
    WorkerPool* pool = options_.pool;
    std::optional<WorkerPool> owned_pool;
    if (pool == nullptr) {
      // The run's own persistent pool: workers spawn here, once, and every
      // depth below reuses them through the barrier.
      owned_pool.emplace(std::max(1u, options_.threads));
      pool = &*owned_pool;
    }
    const unsigned threads = std::max(1u, pool->threads());
    // Stripe counts are a power of two: the stripe pick masks the mixed
    // hash with (stripes - 1). A serial run keeps one unlatched stripe — no
    // mutex on the hot Discover path.
    typename Discoveries::SeenSet seen(
        threads == 1 ? 1 : std::bit_ceil(std::max(16u, 4 * threads)),
        /*latched=*/threads > 1);

    FrontierStats local_stats;
    FrontierStats& out_stats = stats != nullptr ? *stats : local_stats;
    out_stats = FrontierStats();

    // Seed admission is serial: seed lists are small, and admission order
    // must not leak into the canonical sort's tie-free ordering anyway.
    std::vector<Item> frontier;
    frontier.reserve(seeds.size());
    for (Item& seed : seeds) {
      if (seen.Insert(seed)) frontier.push_back(std::move(seed));
    }
    std::sort(frontier.begin(), frontier.end());
    out_stats.seeds_admitted = frontier.size();

    std::vector<PaddedU64> expanded(threads);
    // The depth loop proper, wrapped so that every exit path — error or
    // drained frontier — falls through the stats finalization below.
    auto run_depths = [&]() -> Status {
      while (!frontier.empty()) {
        ++out_stats.depths;
        obs::TraceSpan depth_span(
            "frontier", "depth", "depth",
            static_cast<int64_t>(out_stats.depths - 1), "width",
            static_cast<int64_t>(frontier.size()));
        out_stats.max_frontier =
            std::max<uint64_t>(out_stats.max_frontier, frontier.size());
        std::vector<Out> outs(frontier.size());
        std::vector<std::vector<Item>> fresh(threads);
        std::vector<Status> worker_status(threads);
        // The shared abort: the first failing expansion trips it, chunk
        // dealing stops pool-wide, and workers skip every index they had
        // already been dealt — a failed depth drains promptly instead of
        // expanding to the end on the healthy workers.
        std::atomic<bool> abort{false};
        pool->ParallelFor(
            frontier.size(),
            [&](unsigned worker, size_t index) {
              if (abort.load(std::memory_order_acquire)) return;
              if (!worker_status[worker].ok()) return;
              Discoveries discovered(&seen, &fresh[worker]);
              ++expanded[worker].value;
              Status status =
                  expand(worker, frontier[index], &outs[index], &discovered);
              if (!status.ok()) {
                worker_status[worker] = std::move(status);
                abort.store(true, std::memory_order_release);
              }
            },
            &abort);
        for (Status& status : worker_status) CHASE_RETURN_IF_ERROR(status);
        CHASE_RETURN_IF_ERROR(
            Absorb(pool, threads, frontier, outs, absorb, par_absorb));

        // Barrier reached: merge the per-worker discoveries and sort them
        // into the canonical next frontier.
        size_t total = 0;
        for (const std::vector<Item>& items : fresh) total += items.size();
        std::vector<Item> next;
        next.reserve(total);
        for (std::vector<Item>& items : fresh) {
          for (Item& item : items) next.push_back(std::move(item));
        }
        std::sort(next.begin(), next.end());
        out_stats.items_discovered += next.size();
        frontier = std::move(next);
      }
      return OkStatus();
    };
    const Status status = run_depths();
    // Stats are populated on every exit path, and items_expanded counts
    // only expansions that actually ran (error-skipped items never count).
    out_stats.worker_expanded.assign(threads, 0);
    out_stats.items_expanded = 0;
    for (unsigned t = 0; t < threads; ++t) {
      out_stats.worker_expanded[t] = expanded[t].value;
      out_stats.items_expanded += expanded[t].value;
    }
    // Mirror into the metrics registry: counters accumulate across every
    // frontier run of the session (EXISTS walks and dynamic simplification
    // both fold in); the gauge keeps the widest frontier any run reached.
    if (obs::MetricsRegistry::enabled()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
      registry.GetCounter("frontier.runs")->Add(1);
      registry.GetCounter("frontier.depths")->Add(out_stats.depths);
      registry.GetCounter("frontier.seeds_admitted")
          ->Add(out_stats.seeds_admitted);
      registry.GetCounter("frontier.items_expanded")
          ->Add(out_stats.items_expanded);
      registry.GetCounter("frontier.items_discovered")
          ->Add(out_stats.items_discovered);
      registry.MaxGauge("frontier.max_frontier",
                        static_cast<double>(out_stats.max_frontier));
    }
    return status;
  }

  // One depth's absorb: serial in canonical order, or — when the consumer
  // opted in — per-chunk on the pool with deterministic chunk boundaries.
  [[nodiscard]] Status Absorb(WorkerPool* pool, unsigned threads,
                std::vector<Item>& frontier, std::vector<Out>& outs,
                const AbsorbFn* absorb, const ParallelAbsorbFn* par_absorb) {
    if (absorb != nullptr) {
      return (*absorb)(frontier, std::span<Out>(outs));
    }
    const std::span<const Item> items(frontier);
    const std::span<Out> slots(outs);
    const size_t chunk = FrontierChunkSize(frontier.size(), threads);
    const size_t num_chunks = (frontier.size() + chunk - 1) / chunk;
    std::vector<Status> worker_status(threads);
    std::atomic<bool> abort{false};
    pool->ParallelFor(
        num_chunks,
        [&](unsigned worker, size_t c) {
          if (abort.load(std::memory_order_acquire)) return;
          if (!worker_status[worker].ok()) return;
          const size_t first = c * chunk;
          const size_t count = std::min(chunk, frontier.size() - first);
          Status status = (*par_absorb)(worker, items.subspan(first, count),
                                        slots.subspan(first, count));
          if (!status.ok()) {
            worker_status[worker] = std::move(status);
            abort.store(true, std::memory_order_release);
          }
        },
        &abort);
    for (Status& status : worker_status) CHASE_RETURN_IF_ERROR(status);
    return OkStatus();
  }

  Options options_;
};

// The shared seen structure: one hash set per stripe, each under its own
// reader-writer latch, stripe chosen by the decorrelated high bits of the
// item hash. Insert is the only mutation — membership never shrinks — so
// the first inserter of an item owns its admission and everyone else
// observes a duplicate, whatever the interleaving; duplicates resolve on
// the latch's shared side without blocking each other. A single-threaded
// run constructs it unlatched: a plain hash-set insert, no lock
// acquisition at all.
template <typename Item, typename Out, typename Hash>
class FrontierPool<Item, Out, Hash>::Discoveries::SeenSet {
 public:
  SeenSet(unsigned stripes, bool latched)
      : stripes_(stripes), latched_(latched) {}

  bool Insert(const Item& item) {
    Stripe& stripe =
        stripes_[FibonacciMix(Hash{}(item)) & (stripes_.size() - 1)];
    if (!latched_) return InsertSingleThreaded(stripe, item);
    // Duplicate fast path: once the frontier saturates, most probes hit an
    // item already admitted, and membership never shrinks — so a positive
    // probe under the shared (reader) side of the stripe latch is
    // conclusive and concurrent duplicates don't serialize on the writer
    // lock. A negative probe is only advisory (another thread may insert
    // between the locks); the exclusive insert below re-checks, so the
    // first-inserter-owns-admission property is untouched.
    {
      SharedReaderLock lock(stripe.mu);
      if (ContainsLocked(stripe, item)) return false;
    }
    SharedMutexLock lock(stripe.mu);
    return stripe.set.insert(item).second;
  }

 private:
  struct Stripe {
    SharedMutex mu;
    std::unordered_set<Item, Hash> set GUARDED_BY(mu);
  };

  // Reader-side membership probe: callers hold the stripe latch at least
  // shared, which admits the read of the guarded set but still rejects
  // any mutation under the analysis.
  static bool ContainsLocked(const Stripe& stripe, const Item& item)
      REQUIRES_SHARED(stripe.mu) {
    return stripe.set.count(item) != 0;
  }

  // The documented single-threaded mode: a serial run constructs the set
  // unlatched and thread confinement stands in for the stripe latch.
  static bool InsertSingleThreaded(Stripe& stripe, const Item& item)
      NO_THREAD_SAFETY_ANALYSIS {
    return stripe.set.insert(item).second;
  }

  // Constructed once at full size (power of two); never resized, so the
  // immovable mutexes stay put.
  std::vector<Stripe> stripes_;
  bool latched_;
};

}  // namespace chase

#endif  // CHASE_EXEC_FRONTIER_POOL_H_
