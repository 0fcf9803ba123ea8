// The three chase variants of Section 1.1.
//
// A trigger for Σ on I is a pair (σ, h) where h maps body(σ) into I
// (Definition 3.1). The variants differ only in when a trigger is applied:
//
//  * Oblivious: once per distinct h (full body homomorphism).
//  * Semi-oblivious: once per distinct h|fr(σ) (frontier restriction) — the
//    variant whose termination the paper studies. Nulls are named by
//    (σ, h|fr(σ), z), so the result of a trigger is uniquely determined.
//  * Restricted (standard): only when no extension of h|fr(σ) maps head(σ)
//    into I; fresh nulls per application.
//
// The engine runs round-based (chase_i = chase_{i-1} ∪ applied triggers,
// Section 3) with semi-naive trigger enumeration: in round i only triggers
// using at least one atom created in round i-1 are considered. Bodies may
// have multiple atoms (the checkers only need linear TGDs, but the engine is
// a general TGD chase used by tests and the materialization-based checker).
//
// For non-terminating inputs the engine stops at a configurable atom or
// round limit and reports which limit was hit.

#ifndef CHASE_CHASE_CHASE_ENGINE_H_
#define CHASE_CHASE_CHASE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "chase/instance.h"
#include "logic/database.h"
#include "logic/tgd.h"
#include "obs/progress.h"

namespace chase {

namespace index {
class ShardedShapeIndex;
}  // namespace index

namespace io {
struct ChaseCheckpoint;
}  // namespace io

enum class ChaseVariant {
  kOblivious,
  kSemiOblivious,
  kRestricted,
};

const char* ChaseVariantName(ChaseVariant variant);

struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kSemiOblivious;
  // Stop once the instance holds more than this many atoms. The cut never
  // rolls back a partially applied trigger, so one multi-head trigger may
  // overshoot by at most its head size: after the run, NumAtoms() <=
  // max_atoms + the largest head atom count over the rules.
  //
  // Limit precedence: the atom budget outranks the round budget. When both
  // exhaust in the same round — or the seed database already exceeds
  // max_atoms — the outcome is kAtomLimit, never kRoundLimit: the atom
  // limit reflects real resource pressure, the round limit is a cadence.
  uint64_t max_atoms = 1'000'000;
  // Stop after this many rounds.
  uint64_t max_rounds = UINT64_MAX;
  // Write-through shape maintenance (Section 10): when set, every atom the
  // chase adds to the instance also records its shape here, so the
  // materialized shape(chase_i(D)) stays current round by round and a
  // repeated IsChaseFinite[L] check reads the index instead of scanning.
  // The index must already reflect `database` when RunChase is called
  // (e.g. index::ShardedShapeIndex::Build) and must outlive the run.
  index::ShardedShapeIndex* shape_index = nullptr;
  // Optional live-progress sink (obs/progress.h): when set, the engine
  // publishes rounds / atom count / null count / triggers fired into it at
  // every round boundary and every few thousand trigger firings within a
  // round, so a reporter thread can print status for chases that run long
  // or never terminate. Pure observer — never affects results.
  obs::ChaseProgressSink* progress = nullptr;
  // Checkpoint/restart (the CHCK envelope, io/binary_io.h). When
  // `checkpoint_path` is non-empty the engine serializes its complete
  // state there — instance atoms in insertion order, the null counter,
  // the semi-naive round window, the fired-trigger dedup keys, result
  // counters, and the input fingerprint — atomically (write-temp-then-
  // rename), at round boundaries only:
  //   * every `checkpoint_every_rounds` completed rounds (0 = no periodic
  //     tick), and
  //   * with `checkpoint_on_signal`, when a SIGUSR1 (write and continue)
  //     or SIGTERM (write, then stop with kInterrupted) arrived since the
  //     last boundary. The handlers are the src/base/signal_flag.h shim:
  //     a single lock-free atomic store each, polled here — no allocation,
  //     locking, or I/O ever runs in signal context.
  // Setting either knob without checkpoint_path is kInvalidArgument.
  std::string checkpoint_path;
  uint64_t checkpoint_every_rounds = 0;
  bool checkpoint_on_signal = false;
  // Continue a previous run from its checkpoint instead of starting at
  // the seed database. The checkpoint must come from a chase of the same
  // program (TGDs + seed database, pinned by the input fingerprint) and
  // the same variant; any mismatch is kInvalidArgument — never a silently
  // divergent chase. The continued run is bit-identical to the
  // uninterrupted one — same instance bytes, null ids, rounds, and
  // trigger counts (max_rounds/max_atoms count totals across both legs). With a shape_index, the caller must hand in
  // an index reflecting the checkpoint's instance, exactly as the
  // non-resume contract requires one reflecting `database`. Must outlive
  // the call.
  const io::ChaseCheckpoint* resume = nullptr;
};

enum class ChaseOutcome {
  kFixpoint,     // no applicable trigger remains: the chase terminated
  kAtomLimit,    // atom budget exhausted (outranks kRoundLimit, see above)
  kRoundLimit,   // round budget exhausted
  kInterrupted,  // SIGTERM: checkpoint written, run stopped at the boundary
};

const char* ChaseOutcomeName(ChaseOutcome outcome);

struct ChaseResult {
  Instance instance;
  ChaseOutcome outcome;
  uint64_t rounds = 0;
  uint64_t triggers_fired = 0;
  // Join work of this call's body enumeration (chase/join_cursor.h):
  // candidate rows probed, and body homomorphisms emitted. Their ratio is
  // the rows-probed-per-homomorphism cost of the round joins — about 1 per
  // joined position on key joins, where a full scan would probe whole
  // relations. Counts start at zero on resume, since checkpoints do not
  // carry them.
  uint64_t body_rows_probed = 0;
  uint64_t body_homs = 0;

  explicit ChaseResult(Instance i) : instance(std::move(i)) {}
};

// Runs the chase of `database` with `tgds`. Every atom of `tgds` must name
// a predicate of the schema of `database`, with its arity; otherwise
// kInvalidArgument.
[[nodiscard]] StatusOr<ChaseResult> RunChase(const Database& database,
                               const std::vector<Tgd>& tgds,
                               const ChaseOptions& options = {});

// I |= Σ: every trigger's head is satisfied (Section 2). Used by tests to
// validate that a terminated chase result is a model.
bool Satisfies(const Instance& instance, const std::vector<Tgd>& tgds);

}  // namespace chase

#endif  // CHASE_CHASE_CHASE_ENGINE_H_
