// Checkpoint/restart for long chases: the CHCK envelope (round-trip,
// canonical bytes, and a corruption suite mirroring the CHBN/CHSI ones),
// the engine's periodic and signal-triggered checkpoint protocol with its
// bit-identical --resume contract, the signal-flag shim itself, and the
// chase limit-enforcement fixes that rode along (deterministic atom-limit
// cut with a bounded overshoot, atom limit outranking the round limit).
//
// Signal-path tests drive the protocol through ScopedSignalFlags'
// Post*Request seams (and one real raise()) so they stay deterministic:
// a pre-posted request is served at the first round boundary.
//
// Standalone via `ctest -L checkpoint`.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/signal_flag.h"
#include "chase/chase_engine.h"
#include "io/binary_io.h"
#include "logic/parser.h"

namespace chase {
namespace {

using io::ChaseCheckpoint;

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<GroundAtom> CollectAtoms(const Instance& instance) {
  std::vector<GroundAtom> atoms;
  instance.ForEachAtom(
      [&](const GroundAtom& atom) { atoms.push_back(atom); });
  return atoms;
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

// A handcrafted state with two relations and a few fired keys — enough to
// exercise every field of the envelope.
ChaseCheckpoint MakeSampleCheckpoint() {
  ChaseCheckpoint ckpt;
  ckpt.variant = 1;
  ckpt.input_fingerprint = 0xfeedfacecafef00dull;
  ckpt.rounds = 7;
  ckpt.triggers_fired = 19;
  ckpt.next_null = 5;
  ChaseCheckpoint::Relation r0;
  r0.arity = 2;
  r0.prev = 1;
  r0.cur = 3;
  r0.atoms = {1, 2, 2, 3, 3, 4};
  ChaseCheckpoint::Relation r1;
  r1.arity = 1;
  r1.prev = 0;
  r1.cur = 1;
  r1.atoms = {9};
  ckpt.relations = {r0, r1};
  ckpt.fired_keys = {{0, 1}, {0, 2}, {1, 9, 9}};
  return ckpt;
}

void ExpectSameCheckpoints(const ChaseCheckpoint& a,
                           const ChaseCheckpoint& b) {
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_EQ(a.input_fingerprint, b.input_fingerprint);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.triggers_fired, b.triggers_fired);
  EXPECT_EQ(a.next_null, b.next_null);
  ASSERT_EQ(a.relations.size(), b.relations.size());
  for (size_t i = 0; i < a.relations.size(); ++i) {
    EXPECT_EQ(a.relations[i].arity, b.relations[i].arity) << i;
    EXPECT_EQ(a.relations[i].prev, b.relations[i].prev) << i;
    EXPECT_EQ(a.relations[i].cur, b.relations[i].cur) << i;
    EXPECT_EQ(a.relations[i].atoms, b.relations[i].atoms) << i;
  }
  EXPECT_EQ(a.fired_keys, b.fired_keys);
}

// ---------------------------------------------------------------------------
// The CHCK envelope.

TEST(ChaseCheckpointEnvelopeTest, RoundTripsAndIsCanonical) {
  ChaseCheckpoint ckpt = MakeSampleCheckpoint();
  std::vector<uint8_t> bytes = io::SerializeChaseCheckpoint(ckpt);
  auto loaded = io::DeserializeChaseCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameCheckpoints(ckpt, *loaded);
  // Same state, same bytes: serialization is deterministic.
  EXPECT_EQ(io::SerializeChaseCheckpoint(*loaded), bytes);
}

TEST(ChaseCheckpointEnvelopeTest, FileRoundTripLeavesNoTempBehind) {
  const std::string path = TempPath("chck_roundtrip.chck");
  ChaseCheckpoint ckpt = MakeSampleCheckpoint();
  ASSERT_TRUE(io::SaveChaseCheckpoint(ckpt, path).ok());
  // The write-temp-then-rename protocol must not leave the temp around.
  EXPECT_FALSE(FileExists(path + ".tmp"));
  auto loaded = io::LoadChaseCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameCheckpoints(ckpt, *loaded);
  std::remove(path.c_str());
}

TEST(ChaseCheckpointEnvelopeTest, MissingFileIsNotFound) {
  auto loaded = io::LoadChaseCheckpoint(TempPath("no_such.chck"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ChaseCheckpointEnvelopeTest, TruncationAtEveryLengthRejected) {
  std::vector<uint8_t> bytes =
      io::SerializeChaseCheckpoint(MakeSampleCheckpoint());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto loaded = io::DeserializeChaseCheckpoint(
        std::span<const uint8_t>(bytes.data(), len));
    EXPECT_FALSE(loaded.ok()) << "accepted a prefix of " << len << " bytes";
  }
}

TEST(ChaseCheckpointEnvelopeTest, EveryBitFlipRejected) {
  std::vector<uint8_t> bytes =
      io::SerializeChaseCheckpoint(MakeSampleCheckpoint());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    auto loaded = io::DeserializeChaseCheckpoint(corrupt);
    EXPECT_FALSE(loaded.ok()) << "accepted a flip at byte " << i;
  }
}

TEST(ChaseCheckpointEnvelopeTest, WrongMagicAndVersionRejected) {
  std::vector<uint8_t> bytes =
      io::SerializeChaseCheckpoint(MakeSampleCheckpoint());
  std::vector<uint8_t> wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_EQ(io::DeserializeChaseCheckpoint(wrong_magic).status().code(),
            StatusCode::kFailedPrecondition);
  std::vector<uint8_t> wrong_version = bytes;
  wrong_version[4] += 1;
  EXPECT_EQ(io::DeserializeChaseCheckpoint(wrong_version).status().code(),
            StatusCode::kFailedPrecondition);
  // A CHSI snapshot is not a checkpoint, however valid its envelope.
  std::vector<uint8_t> snapshot_bytes =
      io::SerializeShapeSnapshot(io::ShapeSnapshot{});
  EXPECT_EQ(
      io::DeserializeChaseCheckpoint(snapshot_bytes).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(ChaseCheckpointEnvelopeTest, VersionOneCheckpointRejected) {
  // A well-formed version-1 file, checksum included: its payload carried
  // two more counters (prefiltered triggers, peak buffered homomorphisms)
  // between triggers_fired and next_null.
  ByteWriter payload;
  payload.PutU32(1);        // variant
  payload.PutU64(0xfeed);   // input fingerprint
  payload.PutU64(7);        // rounds
  payload.PutU64(19);       // triggers fired
  payload.PutU64(3);        // triggers prefiltered (version 1 only)
  payload.PutU64(12);       // peak buffered homs (version 1 only)
  payload.PutU64(5);        // next null
  payload.PutU32(1);        // one relation: arity 1, window [0, 1), row 9
  payload.PutU32(1);
  payload.PutU64(0);
  payload.PutU64(1);
  payload.PutU64(1);
  payload.PutU64(9);
  payload.PutU64(0);        // no fired keys
  uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a, as the envelope
  for (uint8_t b : payload.bytes()) {
    checksum ^= b;
    checksum *= 0x100000001b3ULL;
  }
  const std::vector<uint8_t> current =
      io::SerializeChaseCheckpoint(MakeSampleCheckpoint());
  ByteWriter file;
  for (size_t i = 0; i < 4; ++i) file.PutU8(current[i]);  // CHCK magic
  file.PutU32(1);
  file.PutU64(payload.bytes().size());
  file.PutU64(checksum);
  std::vector<uint8_t> bytes = file.Take();
  bytes.insert(bytes.end(), payload.bytes().begin(), payload.bytes().end());

  const auto loaded = io::DeserializeChaseCheckpoint(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status();
}

TEST(ChaseCheckpointEnvelopeTest, SemanticValidationRejects) {
  ChaseCheckpoint bad_variant = MakeSampleCheckpoint();
  bad_variant.variant = 3;  // kNumChaseVariants
  EXPECT_EQ(io::DeserializeChaseCheckpoint(
                io::SerializeChaseCheckpoint(bad_variant))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  ChaseCheckpoint bad_window = MakeSampleCheckpoint();
  bad_window.relations[0].prev = 4;  // > cur
  EXPECT_EQ(io::DeserializeChaseCheckpoint(
                io::SerializeChaseCheckpoint(bad_window))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  ChaseCheckpoint unordered_keys = MakeSampleCheckpoint();
  std::swap(unordered_keys.fired_keys[0], unordered_keys.fired_keys[2]);
  EXPECT_EQ(io::DeserializeChaseCheckpoint(
                io::SerializeChaseCheckpoint(unordered_keys))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  ChaseCheckpoint empty_key = MakeSampleCheckpoint();
  empty_key.fired_keys[0].clear();
  EXPECT_EQ(io::DeserializeChaseCheckpoint(
                io::SerializeChaseCheckpoint(empty_key))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// The signal shim.

TEST(ScopedSignalFlagsTest, RealSignalsSetFlagsAndConsumingClears) {
  ScopedSignalFlags flags;
  EXPECT_FALSE(ScopedSignalFlags::ConsumeCheckpointRequest());
  EXPECT_FALSE(ScopedSignalFlags::ConsumeStopRequest());
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  EXPECT_TRUE(ScopedSignalFlags::ConsumeCheckpointRequest());
  EXPECT_FALSE(ScopedSignalFlags::ConsumeCheckpointRequest());
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(ScopedSignalFlags::ConsumeStopRequest());
  EXPECT_FALSE(ScopedSignalFlags::ConsumeStopRequest());
}

// ---------------------------------------------------------------------------
// The engine protocol. `e(X,Y) -> e(Y,Z)` never terminates (one fresh
// null per round), so every run below ends at a limit or a signal — the
// checkpoint protocol's home turf.

constexpr char kNonTerminating[] = R"(
  e(a, b).
  e(X, Y) -> e(Y, Z).
  e(X, Y) -> p(X).
)";

TEST(ChaseCheckpointEngineTest, CheckpointKnobsRequireAPath) {
  Program p = MustParse(kNonTerminating);
  ChaseOptions options;
  options.max_rounds = 2;
  options.checkpoint_every_rounds = 1;
  EXPECT_EQ(RunChase(*p.database, p.tgds, options).status().code(),
            StatusCode::kInvalidArgument);
  options.checkpoint_every_rounds = 0;
  options.checkpoint_on_signal = true;
  EXPECT_EQ(RunChase(*p.database, p.tgds, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChaseCheckpointEngineTest, PeriodicCheckpointResumesBitIdentically) {
  Program p = MustParse(kNonTerminating);
  ChaseOptions straight_options;
  straight_options.max_rounds = 7;
  auto straight = RunChase(*p.database, p.tgds, straight_options);
  ASSERT_TRUE(straight.ok()) << straight.status();
  ASSERT_EQ(straight->outcome, ChaseOutcome::kRoundLimit);

  const std::string path = TempPath("chck_periodic.chck");
  ChaseOptions leg1_options;
  leg1_options.max_rounds = 3;
  leg1_options.checkpoint_path = path;
  leg1_options.checkpoint_every_rounds = 1;
  auto leg1 = RunChase(*p.database, p.tgds, leg1_options);
  ASSERT_TRUE(leg1.ok()) << leg1.status();
  ASSERT_EQ(leg1->outcome, ChaseOutcome::kRoundLimit);

  auto ckpt = io::LoadChaseCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_EQ(ckpt->rounds, 3u);
  EXPECT_EQ(ckpt->triggers_fired, leg1->triggers_fired);
  EXPECT_EQ(ckpt->next_null, leg1->instance.NumNulls());

  ChaseOptions leg2_options;
  leg2_options.max_rounds = 7;  // totals across both legs
  leg2_options.resume = &*ckpt;
  auto leg2 = RunChase(*p.database, p.tgds, leg2_options);
  ASSERT_TRUE(leg2.ok()) << leg2.status();
  EXPECT_EQ(leg2->outcome, straight->outcome);
  EXPECT_EQ(leg2->rounds, straight->rounds);
  EXPECT_EQ(leg2->triggers_fired, straight->triggers_fired);
  EXPECT_EQ(leg2->instance.NumNulls(), straight->instance.NumNulls());
  EXPECT_EQ(CollectAtoms(leg2->instance), CollectAtoms(straight->instance));
  std::remove(path.c_str());
}

TEST(ChaseCheckpointEngineTest, RepeatedRunsWriteIdenticalCheckpoints) {
  // The checkpoint serializes canonical state (fired keys sorted, atoms in
  // insertion order), so two runs of the same chase write the same file.
  Program p = MustParse(kNonTerminating);
  const std::string path = TempPath("chck_canon.chck");
  const std::string path_again = TempPath("chck_canon_again.chck");
  for (const std::string& out : {path, path_again}) {
    ChaseOptions options;
    options.max_rounds = 5;
    options.checkpoint_path = out;
    options.checkpoint_every_rounds = 5;
    auto result = RunChase(*p.database, p.tgds, options);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(ReadAllBytes(path), ReadAllBytes(path_again));
  auto loaded = io::LoadChaseCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rounds, 5u);
  std::remove(path.c_str());
  std::remove(path_again.c_str());
}

TEST(ChaseCheckpointEngineTest, ResumeRejectsMismatchedProgramOrVariant) {
  Program p = MustParse(kNonTerminating);
  const std::string path = TempPath("chck_mismatch.chck");
  ChaseOptions leg1_options;
  leg1_options.max_rounds = 2;
  leg1_options.checkpoint_path = path;
  leg1_options.checkpoint_every_rounds = 1;
  ASSERT_TRUE(RunChase(*p.database, p.tgds, leg1_options).ok());
  auto ckpt = io::LoadChaseCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();

  ChaseOptions resume_options;
  resume_options.resume = &*ckpt;

  // A different seed database: the input fingerprint catches it.
  Program other = MustParse("e(a, c).\ne(X, Y) -> e(Y, Z).\ne(X, Y) -> p(X).");
  EXPECT_EQ(
      RunChase(*other.database, other.tgds, resume_options).status().code(),
      StatusCode::kInvalidArgument);

  // Same program, different variant.
  resume_options.variant = ChaseVariant::kOblivious;
  EXPECT_EQ(RunChase(*p.database, p.tgds, resume_options).status().code(),
            StatusCode::kInvalidArgument);
  resume_options.variant = ChaseVariant::kSemiOblivious;

  // A round window that no longer covers the relation.
  ChaseCheckpoint narrow = *ckpt;
  for (auto& relation : narrow.relations) {
    if (relation.cur > 0) {
      relation.cur -= 1;
      break;
    }
  }
  resume_options.resume = &narrow;
  EXPECT_EQ(RunChase(*p.database, p.tgds, resume_options).status().code(),
            StatusCode::kInvalidArgument);

  // Duplicate atoms in a stored relation.
  ChaseCheckpoint duplicated = *ckpt;
  for (auto& relation : duplicated.relations) {
    const size_t arity = relation.arity;
    if (relation.atoms.size() >= 2 * arity) {
      std::copy(relation.atoms.begin(), relation.atoms.begin() + arity,
                relation.atoms.begin() + arity);
      break;
    }
  }
  resume_options.resume = &duplicated;
  EXPECT_EQ(RunChase(*p.database, p.tgds, resume_options).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ChaseCheckpointEngineTest, PostedCheckpointRequestWritesAndContinues) {
  // A pre-posted SIGUSR1-equivalent is served at the first round boundary:
  // one checkpoint, run continues to its limit.
  Program p = MustParse(kNonTerminating);
  const std::string path = TempPath("chck_usr1.chck");
  ScopedSignalFlags::PostCheckpointRequest();
  ChaseOptions options;
  options.max_rounds = 4;
  options.checkpoint_path = path;
  options.checkpoint_on_signal = true;
  auto result = RunChase(*p.database, p.tgds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kRoundLimit);
  EXPECT_EQ(result->rounds, 4u);
  auto ckpt = io::LoadChaseCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_EQ(ckpt->rounds, 1u);  // served at the first boundary
  std::remove(path.c_str());
}

TEST(ChaseCheckpointEngineTest, PostedStopInterruptsAndResumeContinues) {
  Program p = MustParse(kNonTerminating);
  ChaseOptions straight_options;
  straight_options.max_rounds = 6;
  auto straight = RunChase(*p.database, p.tgds, straight_options);
  ASSERT_TRUE(straight.ok()) << straight.status();

  const std::string path = TempPath("chck_term.chck");
  ScopedSignalFlags::PostStopRequest();
  ChaseOptions leg1_options;
  leg1_options.max_rounds = 6;
  leg1_options.checkpoint_path = path;
  leg1_options.checkpoint_on_signal = true;
  auto leg1 = RunChase(*p.database, p.tgds, leg1_options);
  ASSERT_TRUE(leg1.ok()) << leg1.status();
  EXPECT_EQ(leg1->outcome, ChaseOutcome::kInterrupted);
  EXPECT_EQ(leg1->rounds, 1u);  // stopped at the first boundary

  auto ckpt = io::LoadChaseCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  ChaseOptions leg2_options;
  leg2_options.max_rounds = 6;
  leg2_options.resume = &*ckpt;
  auto leg2 = RunChase(*p.database, p.tgds, leg2_options);
  ASSERT_TRUE(leg2.ok()) << leg2.status();
  EXPECT_EQ(leg2->outcome, straight->outcome);
  EXPECT_EQ(leg2->rounds, straight->rounds);
  EXPECT_EQ(leg2->triggers_fired, straight->triggers_fired);
  EXPECT_EQ(CollectAtoms(leg2->instance), CollectAtoms(straight->instance));
  std::remove(path.c_str());
}

TEST(ChaseCheckpointEngineTest, InterruptedOutcomeHasAName) {
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kInterrupted), "interrupted");
}

// ---------------------------------------------------------------------------
// Limit enforcement.

TEST(ChaseLimitTest, AtomLimitCutIsDeterministicAndBounded) {
  // Two-atom heads: the one trigger allowed to overshoot adds at most the
  // largest head atom count, and the cut lands at the same trigger on
  // every run.
  Program p = MustParse(R"(
    e(a, b).
    e(X, Y) -> e(Y, Z), e(Z, W).
  )");
  constexpr uint64_t kMaxAtoms = 50;
  constexpr uint64_t kMaxHeadAtoms = 2;
  std::vector<GroundAtom> first_atoms;
  for (int run = 0; run < 2; ++run) {
    ChaseOptions options;
    options.max_atoms = kMaxAtoms;
    auto result = RunChase(*p.database, p.tgds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->outcome, ChaseOutcome::kAtomLimit) << run;
    EXPECT_GT(result->instance.NumAtoms(), kMaxAtoms) << run;
    EXPECT_LE(result->instance.NumAtoms(), kMaxAtoms + kMaxHeadAtoms) << run;
    if (run == 0) {
      first_atoms = CollectAtoms(result->instance);
    } else {
      EXPECT_EQ(CollectAtoms(result->instance), first_atoms);
    }
  }
}

TEST(ChaseLimitTest, SeedOverLimitReportsAtomLimitEvenAtZeroRounds) {
  // Before the fix the round check ran first, so a seed already past the
  // atom budget reported kRoundLimit at max_rounds = 0.
  Program p = MustParse("e(a, b). e(b, c). e(c, d).");
  ChaseOptions options;
  options.max_atoms = 2;
  options.max_rounds = 0;
  auto result = RunChase(*p.database, p.tgds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kAtomLimit);
  EXPECT_EQ(result->rounds, 0u);
  EXPECT_EQ(result->triggers_fired, 0u);
}

TEST(ChaseLimitTest, AtomLimitOutranksRoundLimitWhenBothTrip) {
  // The chain grows one atom per round from one seed: after round 3 the
  // instance holds 4 atoms, so max_atoms = 3 and max_rounds = 3 exhaust in
  // the same round — the atom limit must win.
  Program p = MustParse("e(a, b).\ne(X, Y) -> e(Y, Z).");
  ChaseOptions options;
  options.max_atoms = 3;
  options.max_rounds = 3;
  auto result = RunChase(*p.database, p.tgds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kAtomLimit);
  EXPECT_EQ(result->rounds, 3u);

  // Sanity: with a roomy atom budget the same round cap is a round limit.
  options.max_atoms = 1'000;
  auto roomy = RunChase(*p.database, p.tgds, options);
  ASSERT_TRUE(roomy.ok()) << roomy.status();
  EXPECT_EQ(roomy->outcome, ChaseOutcome::kRoundLimit);
}

}  // namespace
}  // namespace chase
