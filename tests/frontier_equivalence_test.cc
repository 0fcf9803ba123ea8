// Differential harness for the shape plans and the frontier consumers. On
// seeded random workloads, the exists and index plans at {1, 2, 4, 8}
// requested threads over {memory, disk} backends must return the
// bit-identical sorted shape(D) the per-predicate lattice walk returns.
//
// Plus the EXISTS-probe edge cases of the lattice walk and the worklist:
// empty relations, arity-1 predicates (trivial lattices), duplicate
// database shapes in the seed frontier, and more requested threads than
// frontier items.
//
// The chase's checkpoint/restart protocol rides the same kind of
// contract: a chase checkpointed at ANY round boundary and resumed must
// replay the uninterrupted run bit-for-bit — instance bytes, null ids,
// rounds, trigger counts, and the checkpoint file bytes themselves — for
// all three variants, over every non-linear join family, with and without
// index write-through. The resume sweeps cut at every round.
//
// Runs in both the normal and the ThreadSanitizer CI jobs, and standalone
// via `ctest -L frontier` (the resume sweep also under `-L checkpoint`).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/dynamic_simplification.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "index/find_shapes.h"
#include "index/sharded_shape_index.h"
#include "io/binary_io.h"
#include "logic/parser.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using storage::ShapeFinderMode;

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

GeneratedData MakeRandomData(Rng* rng) {
  DataGenParams params;
  params.preds = 1 + static_cast<uint32_t>(rng->Below(6));
  params.min_arity = 1;
  params.max_arity = 1 + static_cast<uint32_t>(rng->Below(6));
  // Small domains force repeated constants, so coarse shapes actually occur
  // (64 is the generator's minimum).
  params.dsize = 64 + rng->Below(150);
  params.rsize = rng->Below(600);
  params.seed = rng->Next();
  auto data = GenerateData(params);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).value();
}

// Bit-identical simplification results: same TGD list (contents and order),
// same interning sequence in the shape schema, same counters.
void ExpectIdenticalSimplification(const DynamicSimplificationResult& a,
                                   const DynamicSimplificationResult& b,
                                   const std::string& label) {
  EXPECT_EQ(a.tgds, b.tgds) << label;
  EXPECT_EQ(a.num_initial_shapes, b.num_initial_shapes) << label;
  EXPECT_EQ(a.num_derived_shapes, b.num_derived_shapes) << label;
  ASSERT_EQ(a.shape_schema->NumShapes(), b.shape_schema->NumShapes())
      << label;
  for (PredId pred = 0; pred < a.shape_schema->NumShapes(); ++pred) {
    EXPECT_EQ(a.shape_schema->ShapeOf(pred), b.shape_schema->ShapeOf(pred))
        << label << ", interned pred " << pred;
  }
}

TEST(FrontierEquivalenceTest, ExistsPlanMatchesSerialOracle) {
  Rng rng(20260729);
  for (int trial = 0; trial < 8; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);
    // The serial oracle: the reference per-predicate lattice walk.
    auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
    ASSERT_TRUE(oracle.ok()) << oracle.status();

    const std::string path =
        TempPath("chase_frontier_equiv_" + std::to_string(trial) + ".db");
    auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                               /*num_frames=*/16);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    pager::DiskShapeSource disk(disk_db->get());

    for (const storage::ShapeSource* source :
         {static_cast<const storage::ShapeSource*>(&memory),
          static_cast<const storage::ShapeSource*>(&disk)}) {
      for (ShapeFinderMode mode :
           {ShapeFinderMode::kExists, ShapeFinderMode::kIndex}) {
        for (unsigned threads : kThreadSweep) {
          FrontierStats stats;
          storage::FindShapesOptions options{mode, threads};
          options.frontier_stats = &stats;
          auto shapes = index::FindShapes(*source, options);
          ASSERT_TRUE(shapes.ok()) << shapes.status();
          EXPECT_EQ(*shapes, *oracle)
              << "trial " << trial << ", backend " << source->Name()
              << ", mode " << storage::ShapeFinderModeName(mode)
              << ", threads " << threads;
          if (mode == ShapeFinderMode::kExists) {
            // The lattice walks ran serially: their counters must
            // reconcile.
            ASSERT_EQ(stats.worker_expanded.size(), 1u);
            EXPECT_EQ(stats.worker_expanded[0], stats.items_expanded);
            EXPECT_EQ(stats.items_expanded,
                      stats.seeds_admitted + stats.items_discovered);
          }
        }
      }
    }
    std::remove(path.c_str());
  }
}

std::vector<GroundAtom> CollectAtoms(const Instance& instance) {
  std::vector<GroundAtom> atoms;
  instance.ForEachAtom(
      [&](const GroundAtom& atom) { atoms.push_back(atom); });
  return atoms;
}

TEST(FrontierEquivalenceTest, NonLinearChaseResumesAtEveryRound) {
  // Every non-linear join family — triangle (cyclic join), star (one hot
  // hub row fanning out), chain (role composition), cross (disconnected
  // body, the pure cross-product) — under all three variants, checkpointed
  // at every round boundary and resumed. The contract is the uninterrupted
  // run bit-for-bit: outcome, rounds, trigger counts, null ids, and the
  // instance's insertion order. existential_percent > 0 puts existential
  // variables in multi-atom heads, so the restricted variant's head probe
  // runs against real joins.
  Rng rng(20260808);
  const NonLinearFamily kFamilies[] = {
      NonLinearFamily::kTriangle, NonLinearFamily::kStar,
      NonLinearFamily::kChain, NonLinearFamily::kCross};
  const std::string ck_path = TempPath("chase_frontier_equiv_nonlinear.chck");
  for (NonLinearFamily family : kFamilies) {
    DataGenParams data_params;
    data_params.preds = 4;
    data_params.min_arity = 2;
    data_params.max_arity = 3;
    data_params.dsize = 64;
    data_params.rsize = 12;
    data_params.seed = rng.Next();
    auto data = GenerateData(data_params);
    ASSERT_TRUE(data.ok()) << data.status();

    NonLinearGenParams tgd_params;
    tgd_params.ssize = data->schema->NumPredicates();
    tgd_params.min_arity = 2;
    tgd_params.max_arity = 3;
    tgd_params.tsize = 5;
    tgd_params.family = family;
    tgd_params.body_atoms = family == NonLinearFamily::kTriangle ? 3 : 2;
    tgd_params.existential_percent = 25;
    tgd_params.seed = rng.Next();
    auto tgds = GenerateNonLinearTgds(*data->schema, tgd_params);
    ASSERT_TRUE(tgds.ok()) << tgds.status();

    for (ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kOblivious,
          ChaseVariant::kRestricted}) {
      ChaseOptions options;
      options.variant = variant;
      // Low enough that the oblivious variants hit the atom limit on the
      // fan-out families: the resumed run must land the same cut.
      options.max_atoms = 1'500;
      auto straight = RunChase(*data->database, *tgds, options);
      ASSERT_TRUE(straight.ok()) << straight.status();
      const std::vector<GroundAtom> straight_atoms =
          CollectAtoms(straight->instance);

      for (uint64_t cut = 1; cut < straight->rounds; ++cut) {
        const std::string label =
            std::string("family ") + NonLinearFamilyName(family) +
            ", variant " + ChaseVariantName(variant) + ", cut " +
            std::to_string(cut);
        ChaseOptions leg1_options = options;
        leg1_options.max_rounds = cut;
        leg1_options.checkpoint_path = ck_path;
        leg1_options.checkpoint_every_rounds = cut;
        auto leg1 = RunChase(*data->database, *tgds, leg1_options);
        ASSERT_TRUE(leg1.ok()) << label << ": " << leg1.status();
        ASSERT_EQ(leg1->outcome, ChaseOutcome::kRoundLimit) << label;
        auto ckpt = io::LoadChaseCheckpoint(ck_path);
        ASSERT_TRUE(ckpt.ok()) << label << ": " << ckpt.status();

        ChaseOptions leg2_options = options;
        leg2_options.resume = &*ckpt;
        auto leg2 = RunChase(*data->database, *tgds, leg2_options);
        ASSERT_TRUE(leg2.ok()) << label << ": " << leg2.status();
        EXPECT_EQ(leg2->outcome, straight->outcome) << label;
        EXPECT_EQ(leg2->rounds, straight->rounds) << label;
        EXPECT_EQ(leg2->triggers_fired, straight->triggers_fired) << label;
        EXPECT_EQ(CollectAtoms(leg2->instance), straight_atoms) << label;
      }
    }
  }
  std::remove(ck_path.c_str());
}

TEST(FrontierEquivalenceTest, RestrictedChaseSkipsSatisfiedTriggers) {
  // The e-cycle rule is satisfied for every trigger (e(Y,Z) always has a
  // witness on a cycle), the f rule only for X=a: the restricted chase
  // fires exactly f(b) and f(c).
  auto program = ParseProgram(R"(
    e(a,b). e(b,c). e(c,a). f(a).
    e(X,Y) -> e(Y,Z).
    e(X,Y) -> f(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto result = RunChase(*program->database, program->tgds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(result->triggers_fired, 2u);  // f(b), f(c)
  EXPECT_EQ(result->instance.NumAtoms(), 6u);
}

// --------------------------------------------------------------------------
// EXISTS-probe and worklist edge cases.

TEST(FrontierEquivalenceTest, EmptyRelationsNeverEnterTheFrontier) {
  // Two populated relations, one empty: only the non-empty ones are walked
  // (the catalog query filters), at every requested thread count.
  auto program = ParseProgram("r(a,b). r(c,c). s(a). t(X,Y) -> r(X,Y).");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (unsigned threads : kThreadSweep) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = index::FindShapes(memory, options);
    ASSERT_TRUE(shapes.ok()) << shapes.status();
    EXPECT_EQ(*shapes, *oracle) << "threads " << threads;
    EXPECT_EQ(stats.seeds_admitted, 2u);  // r and s; t is empty
  }
}

TEST(FrontierEquivalenceTest, ArityOnePredicatesHaveTrivialLattices) {
  // An arity-1 lattice is a single node: one relaxed + one full probe, no
  // children, and the walk must terminate at depth 1.
  auto program = ParseProgram("p(a). p(b). q(c).");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 2u);
  for (unsigned threads : {2u, 8u}) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = index::FindShapes(memory, options);
    ASSERT_TRUE(shapes.ok()) << shapes.status();
    EXPECT_EQ(*shapes, *oracle);
    EXPECT_EQ(stats.depths, 1u);
    EXPECT_EQ(stats.items_expanded, 2u);
    EXPECT_EQ(stats.items_discovered, 0u);
  }
}

TEST(FrontierEquivalenceTest, DuplicateSeedShapesAreDeduplicated) {
  auto program = ParseProgram(R"(
    r(a,b). r(c,c).
    r(X,Y) -> s(X,Y).
    s(X,Y) -> r(Y,X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto shapes = index::FindShapes(memory, {ShapeFinderMode::kScan, 1});
  ASSERT_TRUE(shapes.ok()) << shapes.status();

  // Seed the worklist with every database shape three times over, in
  // reverse: the seen filter must admit each exactly once, and the result
  // must not depend on the seed order.
  std::vector<Shape> duplicated;
  for (int copy = 0; copy < 3; ++copy) {
    duplicated.insert(duplicated.end(), shapes->rbegin(), shapes->rend());
  }
  auto oracle = DynamicSimplificationFromShapes(*program->schema,
                                                program->tgds, *shapes);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto result = DynamicSimplificationFromShapes(*program->schema,
                                                program->tgds, duplicated);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectIdenticalSimplification(*oracle, *result, "duplicated seeds");
  EXPECT_EQ(result->num_initial_shapes, shapes->size());
}

TEST(FrontierEquivalenceTest, MoreThreadsThanFrontierItems) {
  // One arity-2 predicate: the lattice walk starts from a single item, far
  // fewer than the 16 requested threads. The exists plan runs it serially
  // and must agree with the oracle.
  auto program = ParseProgram("r(a,b). r(a,a).");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 2u);  // r_[1,2] and r_[1,1]
  FrontierStats stats;
  storage::FindShapesOptions options{ShapeFinderMode::kExists, 16};
  options.frontier_stats = &stats;
  auto shapes = index::FindShapes(memory, options);
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(*shapes, *oracle);
  EXPECT_EQ(stats.worker_expanded.size(), 1u);
  EXPECT_EQ(stats.seeds_admitted, 1u);
  EXPECT_EQ(stats.items_expanded, 2u);  // [1,2] then its child [1,1]
  EXPECT_EQ(stats.depths, 2u);
}

// --------------------------------------------------------------------------
// Checkpoint/resume differential sweep: cut at every round boundary, resume,
// and demand the uninterrupted run bit-for-bit — across all three variants
// and both maintenance modes (plain memory instance, index write-through).

TEST(FrontierEquivalenceTest, CheckpointResumeSweepMatchesUninterruptedRun) {
  // Non-terminating under every variant: the successor rule always finds a
  // fresh null to extend (restricted included), and the transitive-closure
  // join keeps the multi-atom-body machinery engaged.
  auto program = ParseProgram(R"(
    e(a, b). e(b, c). f(a).
    e(X, Y) -> e(Y, Z).
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(X, Y) -> f(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  constexpr uint64_t kRounds = 6;
  const std::string ck_path = TempPath("chase_frontier_equiv_resume.chck");

  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    // The uninterrupted oracle, no index.
    ChaseOptions oracle_options;
    oracle_options.variant = variant;
    oracle_options.max_rounds = kRounds;
    auto oracle = RunChase(*program->database, program->tgds, oracle_options);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_EQ(oracle->outcome, ChaseOutcome::kRoundLimit);
    const std::vector<GroundAtom> oracle_atoms =
        CollectAtoms(oracle->instance);

    // The index write-through oracle: the shapes a straight run leaves.
    index::ShardedShapeIndex oracle_index =
        index::ShardedShapeIndex::Build(*program->database, /*shards=*/4);
    ChaseOptions oracle_index_options = oracle_options;
    oracle_index_options.shape_index = &oracle_index;
    ASSERT_TRUE(
        RunChase(*program->database, program->tgds, oracle_index_options)
            .ok());
    const std::vector<Shape> oracle_shapes = oracle_index.CurrentShapes();

    for (uint64_t cut = 1; cut < kRounds; ++cut) {
      // Canonical checkpoints: the file bytes are identical whatever the
      // maintenance mode.
      std::vector<uint8_t> canonical_bytes;
      for (bool write_through : {false, true}) {
        const std::string label =
            std::string("variant ") + ChaseVariantName(variant) + ", cut " +
            std::to_string(cut) + (write_through ? ", index" : ", memory");

        ChaseOptions leg1_options;
        leg1_options.variant = variant;
        leg1_options.max_rounds = cut;
        leg1_options.checkpoint_path = ck_path;
        leg1_options.checkpoint_every_rounds = cut;
        index::ShardedShapeIndex leg1_index(4);
        if (write_through) {
          leg1_index = index::ShardedShapeIndex::Build(*program->database,
                                                       /*shards=*/4);
          leg1_options.shape_index = &leg1_index;
        }
        auto leg1 = RunChase(*program->database, program->tgds, leg1_options);
        ASSERT_TRUE(leg1.ok()) << label << ": " << leg1.status();
        ASSERT_EQ(leg1->outcome, ChaseOutcome::kRoundLimit) << label;

        std::ifstream in(ck_path, std::ios::binary);
        ASSERT_TRUE(in.good()) << label;
        std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>{});
        in.close();
        if (canonical_bytes.empty()) {
          canonical_bytes = bytes;
        } else {
          EXPECT_EQ(bytes, canonical_bytes) << label;
        }
        auto ckpt = io::DeserializeChaseCheckpoint(bytes);
        ASSERT_TRUE(ckpt.ok()) << label << ": " << ckpt.status();
        EXPECT_EQ(ckpt->rounds, cut) << label;

        ChaseOptions leg2_options;
        leg2_options.variant = variant;
        leg2_options.max_rounds = kRounds;
        leg2_options.resume = &*ckpt;
        index::ShardedShapeIndex leg2_index(4);
        if (write_through) {
          // The resume contract: the caller hands in an index reflecting
          // the checkpoint's instance, here replayed from leg 1's result.
          leg1->instance.ForEachAtom([&](const GroundAtom& atom) {
            leg2_index.Insert(atom.pred, atom.args);
          });
          leg2_options.shape_index = &leg2_index;
        }
        auto leg2 = RunChase(*program->database, program->tgds, leg2_options);
        ASSERT_TRUE(leg2.ok()) << label << ": " << leg2.status();
        EXPECT_EQ(leg2->outcome, oracle->outcome) << label;
        EXPECT_EQ(leg2->rounds, oracle->rounds) << label;
        EXPECT_EQ(leg2->triggers_fired, oracle->triggers_fired) << label;
        EXPECT_EQ(leg2->instance.NumNulls(), oracle->instance.NumNulls())
            << label;
        EXPECT_EQ(CollectAtoms(leg2->instance), oracle_atoms) << label;
        if (write_through) {
          EXPECT_EQ(leg2_index.CurrentShapes(), oracle_shapes) << label;
        }
      }
    }
  }
  std::remove(ck_path.c_str());
}

TEST(FrontierEquivalenceTest, MeteringTotalsAreThreadCountIndependent) {
  // The requested thread count never changes the probe set: logical
  // access totals must match the 1-thread walk exactly.
  Rng rng(991);
  GeneratedData data = MakeRandomData(&rng);
  storage::Catalog catalog(data.database.get());
  storage::MemoryShapeSource memory(&catalog);
  ASSERT_TRUE(index::FindShapes(memory, {ShapeFinderMode::kExists, 1}).ok());
  const storage::AccessStats serial = memory.stats();
  for (unsigned threads : {2u, 8u}) {
    memory.stats().Reset();
    ASSERT_TRUE(index::FindShapes(memory, {ShapeFinderMode::kExists, threads}).ok());
    EXPECT_EQ(memory.stats().exists_queries, serial.exists_queries)
        << "threads " << threads;
    EXPECT_EQ(memory.stats().tuples_scanned, serial.tuples_scanned)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace chase
