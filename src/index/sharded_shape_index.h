// ShardedShapeIndex: the materialized, incrementally maintained shape(D) of
// Section 10, partitioned so maintenance scales across threads.
//
// storage::ShapeIndex is the single-threaded sketch of the paper's
// "materialize and incrementally keep updated the shapes in a database"
// proposal. This subsystem is the production form:
//
//  * Sharding: counters are partitioned across N shards by a mixed
//    hash(pred, id-tuple) — the same work-division playbook as the
//    work-partitioned parallel FindShapes — so concurrent writers touch
//    disjoint latches with probability (N-1)/N.
//  * Build: range-partitioned parallel scan over any storage::ShapeSource
//    (row store or buffer-pooled disk pager), workers accumulating into
//    thread-local counters that are folded into the shards once per worker.
//  * Reads: CurrentShapes() extracts each shard sorted and k-way merges the
//    runs — identical output to storage::FindShapes (sorted by (pred, id)).
//  * Persistence: binary snapshots (io/binary_io.h) so a front end can build
//    once and reuse the index across runs.
//
// Write-through integration points: storage::Catalog::InsertFact and
// ChaseOptions::shape_index route every tuple/atom insert through the index,
// and core::IsChaseFiniteL's LCheckOptions::shape_index reads it back, which
// turns the db-dependent component of every repeated termination check into
// a dictionary extraction.
//
// Thread safety: Insert/Remove/Contains/Count/NumShapes/CurrentShapes are
// safe to call concurrently. CurrentShapes locks one shard at a time, so it
// is a consistent snapshot only once writers are quiesced (the chase engine
// and the termination checkers alternate phases, so this is the natural
// usage pattern).

#ifndef CHASE_INDEX_SHARDED_SHAPE_INDEX_H_
#define CHASE_INDEX_SHARDED_SHAPE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/term.h"
#include "storage/catalog.h"
#include "storage/shape_source.h"

namespace chase {
namespace index {

struct IndexBuildOptions {
  unsigned shards = 0;   // 0 = kDefaultShards
  unsigned threads = 1;  // <= 1 scans serially
};

// Order-independent content fingerprint machinery: every indexed tuple
// contributes a mixed hash of its (pred, tuple) pair, and the index keeps
// the running sum. Two databases with equal fingerprints almost surely hold
// the same multiset of facts, so a remove+insert pair that preserves tuple
// counts (which fools a count-only staleness check) still flips the
// fingerprint. Sums (not XORs) so duplicate tuples don't cancel, and
// removal is subtraction. The uint32_t and Term forms agree on constants
// (a constant id widens to the same 64-bit term encoding).
uint64_t TupleFingerprint(PredId pred, std::span<const uint32_t> tuple);
uint64_t TupleFingerprint(PredId pred, std::span<const Term> tuple);

// The fingerprint a freshly built index over `db` would carry — what the
// snapshot staleness guard compares against.
uint64_t DatabaseFingerprint(const Database& db);

// Implements storage::ShapeWriteThrough so a writable Catalog can
// maintain the index from its insert stream without storage/ ever naming
// this type (the dependency points index -> storage, per layers.toml).
class ShardedShapeIndex final : public storage::ShapeWriteThrough {
 public:
  static constexpr unsigned kDefaultShards = 16;
  static constexpr unsigned kMaxShards = 4096;

  explicit ShardedShapeIndex(unsigned shards = kDefaultShards);

  // Movable (the fingerprint atomic is transferred with relaxed loads;
  // don't move an index other threads are still writing).
  ShardedShapeIndex(ShardedShapeIndex&& other) noexcept;
  ShardedShapeIndex& operator=(ShardedShapeIndex&& other) noexcept;

  // Builds the index from any ShapeSource with `options.threads`
  // range-partitioned scan workers (the PR-1 chunking, so this works over
  // both the row store and the disk pager). Meters the scan into
  // source.stats() exactly like the scan-mode FindShapes.
  [[nodiscard]] static StatusOr<ShardedShapeIndex> Build(
      const storage::ShapeSource& source,
      const IndexBuildOptions& options = {});

  // Convenience: serial build straight from a raw database.
  static ShardedShapeIndex Build(const Database& db,
                                 unsigned shards = kDefaultShards);

  // Records one inserted tuple of `pred`. Thread-safe (per-shard latch).
  // The uint32_t overload serves the row store; the Term overload serves
  // chase instances — a shape depends only on the tuple's equality pattern,
  // so nulls and constants index identically. Both maintain the content
  // fingerprint from the actual tuple.
  void Insert(PredId pred, std::span<const uint32_t> tuple) override {
    AddShape(Shape(pred, IdOf(tuple)), 1, TupleFingerprint(pred, tuple));
  }
  void Insert(PredId pred, std::span<const Term> tuple) {
    AddShape(Shape(pred, IdOf(tuple)), 1, TupleFingerprint(pred, tuple));
  }

  // Records `count` tuples carrying `shape` directly (the write-through fast
  // path when the caller already computed the shape). `fingerprint` is the
  // tuples' total TupleFingerprint contribution; callers that cannot supply
  // it (shape-only replay) pass 0 and forfeit the staleness guard.
  void AddShape(const Shape& shape, uint64_t count = 1,
                uint64_t fingerprint = 0);

  // Records one deleted tuple of `pred`. Fails with kFailedPrecondition if
  // no tuple with that shape is indexed (the counter would go negative).
  [[nodiscard]] Status Remove(PredId pred, std::span<const uint32_t> tuple) {
    return RemoveShape(Shape(pred, IdOf(tuple)),
                       TupleFingerprint(pred, tuple));
  }
  [[nodiscard]] Status Remove(PredId pred, std::span<const Term> tuple) {
    return RemoveShape(Shape(pred, IdOf(tuple)),
                       TupleFingerprint(pred, tuple));
  }
  [[nodiscard]]
  Status RemoveShape(const Shape& shape, uint64_t fingerprint = 0);

  bool Contains(const Shape& shape) const;

  // Number of indexed tuples currently carrying `shape`.
  uint64_t Count(const Shape& shape) const;

  // Distinct shapes currently present (sums the shard sizes).
  size_t NumShapes() const;

  // Total indexed tuples (sum of all counters).
  uint64_t NumIndexedTuples() const;

  // Order-independent content fingerprint of the indexed tuples; equals
  // DatabaseFingerprint(db) for an index maintained from db's update
  // stream. Persisted in snapshots and compared by the staleness guard.
  uint64_t ContentFingerprint() const {
    return fingerprint_.load(std::memory_order_relaxed);
  }

  unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }

  // Distinct shapes held by one shard — stat / balance diagnostics.
  size_t ShardNumShapes(unsigned shard) const;

  // shape(D) sorted by (pred, id) — same contract as storage::FindShapes:
  // per-shard sorted extraction, then a k-way merge of the runs.
  std::vector<Shape> CurrentShapes() const;

  // Snapshot persistence (format: io/binary_io.h). Load restores the saved
  // shard count.
  [[nodiscard]] Status Save(const std::string& path) const;
  [[nodiscard]]
  static StatusOr<ShardedShapeIndex> Load(const std::string& path);

 private:
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Shape, uint64_t, ShapeHash> counts GUARDED_BY(mu);
    uint64_t tuples GUARDED_BY(mu) = 0;  // sum of counts
  };

  using CountMap = std::unordered_map<Shape, uint64_t, ShapeHash>;

  // hash(pred, id-tuple) with a final mix so shard choice is decorrelated
  // from the buckets the same hash picks inside the shard map.
  size_t ShardOf(const Shape& shape) const;

  // Folds a worker's thread-local counters in, one shard lock per shard.
  void MergeCounts(const CountMap& counts);

  std::vector<std::unique_ptr<Shard>> shards_;
  // Sum of TupleFingerprint over indexed tuples (see above). Atomic so
  // concurrent writers on different shards maintain it without a global
  // lock.
  std::atomic<uint64_t> fingerprint_{0};
};

}  // namespace index
}  // namespace chase

#endif  // CHASE_INDEX_SHARDED_SHAPE_INDEX_H_
