// Binary serialization for programs (schema + database + TGDs) and for
// shape-index snapshots.
//
// The text format (logic/parser.h) is the interchange format; this binary
// format is the fast path for large generated workloads: loading skips
// lexing, predicate interning by name, and TGD re-normalization. The
// benches' 100K-rule inputs parse in seconds but load in tens of
// milliseconds, and chasectl uses it to snapshot generated scenarios.
//
// Both artifact kinds share one envelope (little-endian):
//   magic | format version | payload size | FNV-1a payload checksum
//
// Program payload (magic "CHBN"):
//   schema   : predicate count, then (name, arity) per predicate
//   constants: named-constant count + names, anonymous domain size
//   facts    : per predicate, the flat arity-strided tuple array
//   tgds     : per TGD, body and head atom lists (pred + variable ids)
//
// Shape-snapshot payload (magic "CHSI", version 2): shard count, the
// order-independent content fingerprint of the indexed tuples (the
// staleness guard of `chasectl check --shapes=index --snapshot`, maintained
// by the write-through paths), then the (pred, id-tuple, counter) entries
// sorted strictly by shape, so snapshot bytes are canonical for a given
// index state.
//
// Chase-checkpoint payload (magic "CHCK"): the complete state of a chase
// at a round boundary — variant, input fingerprint, result counters, the
// null counter, per-predicate atoms (insertion order, arity-strided terms)
// with the semi-naive round-window watermarks, and the fired-trigger dedup
// keys sorted lexicographically — so `chasectl chase --resume=FILE`
// bit-identically continues the run (see chase/chase_engine.h).
//
// Loading validates the checksum before parsing, and every read is bounds-
// checked (ByteReader), so corrupt or truncated files fail cleanly.

#ifndef CHASE_IO_BINARY_IO_H_
#define CHASE_IO_BINARY_IO_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace io {

// Serializes a program to bytes / a file.
std::vector<uint8_t> SerializeProgram(const Schema& schema,
                                      const Database& database,
                                      const std::vector<Tgd>& tgds);
[[nodiscard]] Status SaveProgram(const Schema& schema, const Database& database,
                   const std::vector<Tgd>& tgds, const std::string& path);

// Deserializes; fails with kFailedPrecondition on bad magic/version/
// checksum and kOutOfRange on truncation.
[[nodiscard]]
StatusOr<Program> DeserializeProgram(std::span<const uint8_t> bytes);
[[nodiscard]] StatusOr<Program> LoadProgram(const std::string& path);

// ---------------------------------------------------------------------------
// Shape-index snapshots (index/sharded_shape_index.h): the materialized
// shape(D) multiset, persisted so a front end builds the index once and
// reuses it across runs.

// Largest shard count a well-formed snapshot may declare; kept equal to
// index::ShardedShapeIndex::kMaxShards (static_assert'd there) so strict
// loading never has to clamp.
inline constexpr uint32_t kMaxSnapshotShards = 4096;

struct ShapeCount {
  Shape shape;
  uint64_t count = 0;
};

struct ShapeSnapshot {
  uint32_t num_shards = 0;
  // Sum of index::TupleFingerprint over the indexed tuples.
  uint64_t fingerprint = 0;
  // Sorted strictly by shape (enforced on load); counts are positive.
  std::vector<ShapeCount> counts;
};

std::vector<uint8_t> SerializeShapeSnapshot(const ShapeSnapshot& snapshot);
[[nodiscard]] Status SaveShapeSnapshot(const ShapeSnapshot& snapshot,
                         const std::string& path);

// Fails with kFailedPrecondition on bad magic/version/checksum, malformed
// id-tuples (every id must be a restricted-growth string), zero counts, or
// out-of-order entries; kOutOfRange on truncation.
[[nodiscard]] StatusOr<ShapeSnapshot> DeserializeShapeSnapshot(
    std::span<const uint8_t> bytes);
[[nodiscard]]
StatusOr<ShapeSnapshot> LoadShapeSnapshot(const std::string& path);

// ---------------------------------------------------------------------------
// Chase checkpoints (chase/chase_engine.h): everything a chase needs to
// continue from a round boundary exactly as if it had never stopped.
// Written periodically and on SIGUSR1/SIGTERM by RunChase, consumed by
// ChaseOptions::resume / `chasectl chase --resume=FILE`.

struct ChaseCheckpoint {
  // ChaseVariant as its underlying value (range-checked on load; RunChase
  // additionally requires it to match the resuming run's options).
  uint32_t variant = 0;
  // ProgramFingerprint of the (schema, database, TGDs) the chase ran on.
  // Resuming against a different program fails with kInvalidArgument —
  // never a silently divergent chase.
  uint64_t input_fingerprint = 0;
  // ChaseResult counters at the boundary.
  uint64_t rounds = 0;
  uint64_t triggers_fired = 0;
  // The instance's null counter (= the next null id to be handed out).
  uint64_t next_null = 0;
  struct Relation {
    uint32_t arity = 0;
    // The semi-naive round window: rows below `prev` existed before the
    // last completed round, rows below `cur` exist now. prev <= cur <=
    // row count (enforced on load).
    uint64_t prev = 0;
    uint64_t cur = 0;
    // Every atom of the predicate as arity-strided flat terms in
    // insertion order. The order IS the state: resume replays it, so the
    // by-predicate layout — and with it every downstream enumeration —
    // is bit-identical to the run that wrote the checkpoint.
    std::vector<Term> atoms;
  };
  // One entry per schema predicate, in predicate-id order.
  std::vector<Relation> relations;
  // Fired-trigger dedup keys ([rule, binding...]; oblivious and
  // semi-oblivious variants only — empty for restricted), sorted strictly
  // ascending so checkpoint bytes are canonical for a given chase state.
  std::vector<std::vector<uint64_t>> fired_keys;
};

// The identity of a chase input: FNV-1a over the serialized program.
uint64_t ProgramFingerprint(const Schema& schema, const Database& database,
                            const std::vector<Tgd>& tgds);

std::vector<uint8_t> SerializeChaseCheckpoint(
    const ChaseCheckpoint& checkpoint);
// Atomic: writes `path + ".tmp"`, then renames over `path`, so a reader —
// or a crash mid-write — never observes a torn checkpoint; the previous
// complete checkpoint stays intact until the new one fully lands.
[[nodiscard]] Status SaveChaseCheckpoint(const ChaseCheckpoint& checkpoint,
                           const std::string& path);

// Fails with kFailedPrecondition on bad magic/version/checksum, a variant
// out of range, malformed relations (zero or oversized arity, watermarks
// past the row count, terms not arity-strided), unsorted fired keys, or
// trailing bytes; kOutOfRange on truncation.
[[nodiscard]] StatusOr<ChaseCheckpoint> DeserializeChaseCheckpoint(
    std::span<const uint8_t> bytes);
[[nodiscard]]
StatusOr<ChaseCheckpoint> LoadChaseCheckpoint(const std::string& path);

}  // namespace io
}  // namespace chase

#endif  // CHASE_IO_BINARY_IO_H_
