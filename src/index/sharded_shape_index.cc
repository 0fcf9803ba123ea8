#include "index/sharded_shape_index.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "base/hash.h"
#include "base/padded.h"
#include "base/status.h"
#include "base/sync.h"
#include "io/binary_io.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/term.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/shape_source.h"

namespace chase {
namespace index {

static_assert(ShardedShapeIndex::kMaxShards == io::kMaxSnapshotShards,
              "snapshot validation must accept every buildable shard count");

namespace {

unsigned ClampShards(unsigned shards) {
  if (shards == 0) return ShardedShapeIndex::kDefaultShards;
  return std::min(shards, ShardedShapeIndex::kMaxShards);
}

// Order-dependent fold of the fully mixed terms (Mix64's full avalanche
// keeps single-bit inputs — e.g. a Term's null tag — from cancelling
// linearly over pairs), mixed once more so the per-tuple hashes stay well
// distributed under 64-bit summation.
template <typename T>
uint64_t TupleFingerprintImpl(PredId pred, std::span<const T> tuple) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ pred;
  for (T v : tuple) {
    h ^= Mix64(static_cast<uint64_t>(v));
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

uint64_t TupleFingerprint(PredId pred, std::span<const uint32_t> tuple) {
  return TupleFingerprintImpl(pred, tuple);
}

uint64_t TupleFingerprint(PredId pred, std::span<const Term> tuple) {
  return TupleFingerprintImpl(pred, tuple);
}

uint64_t DatabaseFingerprint(const Database& db) {
  uint64_t fingerprint = 0;
  for (PredId pred : db.NonEmptyPredicates()) {
    const uint32_t arity = db.schema().Arity(pred);
    const auto tuples = db.Tuples(pred);
    const size_t rows = tuples.size() / arity;
    for (size_t row = 0; row < rows; ++row) {
      fingerprint +=
          TupleFingerprint(pred, tuples.subspan(row * arity, arity));
    }
  }
  return fingerprint;
}

ShardedShapeIndex::ShardedShapeIndex(unsigned shards) {
  shards_.reserve(ClampShards(shards));
  for (unsigned i = 0; i < ClampShards(shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedShapeIndex::ShardedShapeIndex(ShardedShapeIndex&& other) noexcept
    : shards_(std::move(other.shards_)),
      fingerprint_(
          other.fingerprint_.load(std::memory_order_relaxed)) {}

ShardedShapeIndex& ShardedShapeIndex::operator=(
    ShardedShapeIndex&& other) noexcept {
  if (this != &other) {
    shards_ = std::move(other.shards_);
    fingerprint_.store(other.fingerprint_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  return *this;
}

size_t ShardedShapeIndex::ShardOf(const Shape& shape) const {
  // Fibonacci final mix: ShapeHash's low bits also pick the bucket inside
  // the shard map, so shard selection reads the high bits instead.
  return static_cast<size_t>(FibonacciMix(ShapeHash{}(shape)) %
                             shards_.size());
}

void ShardedShapeIndex::AddShape(const Shape& shape, uint64_t count,
                                 uint64_t fingerprint) {
  if (count == 0) return;
  Shard& shard = *shards_[ShardOf(shape)];
  {
    MutexLock lock(shard.mu);
    shard.counts[shape] += count;
    shard.tuples += count;
  }
  if (fingerprint != 0) {
    fingerprint_.fetch_add(fingerprint, std::memory_order_relaxed);
  }
}

Status ShardedShapeIndex::RemoveShape(const Shape& shape,
                                      uint64_t fingerprint) {
  Shard& shard = *shards_[ShardOf(shape)];
  {
    MutexLock lock(shard.mu);
    auto it = shard.counts.find(shape);
    if (it == shard.counts.end()) {
      return FailedPreconditionError(
          "removing a tuple whose shape is not indexed");
    }
    if (--it->second == 0) shard.counts.erase(it);
    --shard.tuples;
  }
  if (fingerprint != 0) {
    fingerprint_.fetch_sub(fingerprint, std::memory_order_relaxed);
  }
  return OkStatus();
}

bool ShardedShapeIndex::Contains(const Shape& shape) const {
  const Shard& shard = *shards_[ShardOf(shape)];
  MutexLock lock(shard.mu);
  return shard.counts.find(shape) != shard.counts.end();
}

uint64_t ShardedShapeIndex::Count(const Shape& shape) const {
  const Shard& shard = *shards_[ShardOf(shape)];
  MutexLock lock(shard.mu);
  auto it = shard.counts.find(shape);
  return it == shard.counts.end() ? 0 : it->second;
}

size_t ShardedShapeIndex::NumShapes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->counts.size();
  }
  return total;
}

uint64_t ShardedShapeIndex::NumIndexedTuples() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->tuples;
  }
  return total;
}

size_t ShardedShapeIndex::ShardNumShapes(unsigned shard) const {
  MutexLock lock(shards_[shard]->mu);
  return shards_[shard]->counts.size();
}

void ShardedShapeIndex::MergeCounts(const CountMap& counts) {
  // Group by destination shard first so each shard latch is taken once per
  // fold, not once per shape.
  std::vector<std::vector<const CountMap::value_type*>> by_shard(
      shards_.size());
  // chase-lint: allow(unordered-iter) commutative fold: += into per-shard
  // counters, so visit order cannot change any final count
  for (const auto& entry : counts) {
    by_shard[ShardOf(entry.first)].push_back(&entry);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (const auto* entry : by_shard[s]) {
      shard.counts[entry->first] += entry->second;
      shard.tuples += entry->second;
    }
  }
}

std::vector<Shape> ShardedShapeIndex::CurrentShapes() const {
  // Per-shard sorted extraction.
  std::vector<std::vector<Shape>> runs;
  runs.reserve(shards_.size());
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::vector<Shape> run;
    {
      MutexLock lock(shard->mu);
      run.reserve(shard->counts.size());
      // chase-lint: allow(unordered-iter) sorted before emit: std::sort on
      // the run directly below, then the k-way merge
      for (const auto& [shape, count] : shard->counts) run.push_back(shape);
    }
    std::sort(run.begin(), run.end());
    total += run.size();
    if (!run.empty()) runs.push_back(std::move(run));
  }

  // K-way merge of the runs. Shards partition the shape space, so the runs
  // are duplicate-free and so is the merge.
  std::vector<Shape> merged;
  merged.reserve(total);
  using Cursor = std::pair<size_t, size_t>;  // (run, offset)
  auto greater = [&](const Cursor& a, const Cursor& b) {
    return runs[b.first][b.second] < runs[a.first][a.second];
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  for (size_t r = 0; r < runs.size(); ++r) heap.push({r, 0});
  while (!heap.empty()) {
    auto [run, offset] = heap.top();
    heap.pop();
    merged.push_back(std::move(runs[run][offset]));
    if (offset + 1 < runs[run].size()) heap.push({run, offset + 1});
  }
  return merged;
}

StatusOr<ShardedShapeIndex> ShardedShapeIndex::Build(
    const storage::ShapeSource& source, const IndexBuildOptions& options) {
  ShardedShapeIndex index(ClampShards(options.shards));
  const unsigned threads = std::max(1u, options.threads);
  obs::TraceSpan build_span("index", "build", "shards",
                            static_cast<int64_t>(index.num_shards()),
                            "threads", static_cast<int64_t>(threads));

  // The range-partitioned scan driver is shared with the scan-mode shape
  // finder; workers count into thread-local maps (and sum their tuples'
  // content fingerprints at cache-line stride), folded in per worker.
  std::vector<CountMap> local(threads);
  std::vector<PaddedU64> local_fp(threads);
  CHASE_RETURN_IF_ERROR(storage::ParallelTupleScan(
      source, source.NonEmptyRelations(), threads,
      [&](unsigned t, PredId pred, std::span<const uint32_t> tuple) {
        ++local[t][Shape(pred, IdOf(tuple))];
        local_fp[t].value += TupleFingerprint(pred, tuple);
      }));
  for (unsigned t = 0; t < threads; ++t) index.MergeCounts(local[t]);
  uint64_t fingerprint = 0;
  for (unsigned t = 0; t < threads; ++t) fingerprint += local_fp[t].value;
  index.fingerprint_.store(fingerprint, std::memory_order_relaxed);
  if (obs::MetricsRegistry::enabled()) {
    uint64_t tuples = 0;
    for (const CountMap& counts : local) {
      // chase-lint: allow(unordered-iter) commutative fold: a sum
      for (const auto& [shape, count] : counts) tuples += count;
    }
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    registry.GetCounter("index.builds")->Add(1);
    registry.GetCounter("index.tuples_indexed")->Add(tuples);
    registry.SetGauge("index.shards",
                      static_cast<double>(index.num_shards()));
  }
  return index;
}

ShardedShapeIndex ShardedShapeIndex::Build(const Database& db,
                                           unsigned shards) {
  ShardedShapeIndex index(shards);
  for (PredId pred : db.NonEmptyPredicates()) {
    const uint32_t arity = db.schema().Arity(pred);
    const auto tuples = db.Tuples(pred);
    const size_t rows = tuples.size() / arity;
    for (size_t row = 0; row < rows; ++row) {
      index.Insert(pred, tuples.subspan(row * arity, arity));
    }
  }
  return index;
}

Status ShardedShapeIndex::Save(const std::string& path) const {
  io::ShapeSnapshot snapshot;
  snapshot.num_shards = num_shards();
  snapshot.fingerprint = ContentFingerprint();
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // chase-lint: allow(unordered-iter) sorted before emit: entries sorted
    // by shape below, before SaveShapeSnapshot writes a byte
    for (const auto& [shape, count] : shard->counts) {
      snapshot.counts.push_back({shape, count});
    }
  }
  // Snapshot bytes are deterministic: entries sorted by shape.
  std::sort(snapshot.counts.begin(), snapshot.counts.end(),
            [](const io::ShapeCount& a, const io::ShapeCount& b) {
              return a.shape < b.shape;
            });
  return io::SaveShapeSnapshot(snapshot, path);
}

StatusOr<ShardedShapeIndex> ShardedShapeIndex::Load(const std::string& path) {
  CHASE_ASSIGN_OR_RETURN(io::ShapeSnapshot snapshot,
                         io::LoadShapeSnapshot(path));
  ShardedShapeIndex index(snapshot.num_shards);
  // chase-lint: allow(unordered-iter) not a hash map: io::ShapeSnapshot
  // ::counts is a vector, already shape-sorted by Save
  for (const io::ShapeCount& entry : snapshot.counts) {
    index.AddShape(entry.shape, entry.count);
  }
  // Shape records don't carry tuple contents; the envelope's fingerprint is
  // the authoritative content digest of the snapshotted database.
  index.fingerprint_.store(snapshot.fingerprint, std::memory_order_relaxed);
  return index;
}

}  // namespace index
}  // namespace chase
