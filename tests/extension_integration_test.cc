// End-to-end integration across the extension modules: a workload flows
// generator → binary snapshot → disk store → incremental shape index →
// termination check (index-fed) → chase materialization → query answering →
// rewriting, with every stage's output validated against an independent
// path.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "acyclicity/joint_acyclicity.h"
#include "acyclicity/uniform.h"
#include "chase/chase_engine.h"
#include "core/explain.h"
#include "core/is_chase_finite.h"
#include "core/normalize.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "io/binary_io.h"
#include "logic/parser.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "query/conjunctive_query.h"
#include "query/rewriting.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_index.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

TEST(ExtensionIntegrationTest, GeneratedWorkloadFullPipeline) {
  // 1. Generate a workload.
  DataGenParams data_params;
  data_params.preds = 8;
  data_params.min_arity = 1;
  data_params.max_arity = 4;
  data_params.dsize = 500;
  data_params.rsize = 300;
  data_params.seed = 4242;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());
  TgdGenParams tgd_params;
  tgd_params.ssize = 8;
  tgd_params.min_arity = 1;
  tgd_params.max_arity = 4;
  tgd_params.tsize = 30;
  tgd_params.tclass = TgdClass::kLinear;
  tgd_params.seed = 4243;
  auto tgds = GenerateTgds(*data->schema, tgd_params);
  ASSERT_TRUE(tgds.ok());

  // 2. Snapshot to the binary format and load back.
  const std::string snapshot = testing::TempDir() + "/integration.chbin";
  ASSERT_TRUE(io::SaveProgram(*data->schema, *data->database, tgds.value(),
                              snapshot)
                  .ok());
  auto loaded = io::LoadProgram(snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->tgds.size(), tgds->size());
  EXPECT_EQ(loaded->database->TotalFacts(), data->database->TotalFacts());

  // 3. Persist to the disk store; its shape scan matches the row store's.
  const std::string store_path = testing::TempDir() + "/integration.db";
  auto store = pager::DiskDatabase::Create(store_path, *loaded->database);
  ASSERT_TRUE(store.ok());
  pager::DiskShapeSource disk(store->get());
  auto disk_shapes = storage::FindShapes(disk);
  ASSERT_TRUE(disk_shapes.ok());
  storage::Catalog catalog(loaded->database.get());
  storage::MemoryShapeSource memory(&catalog);
  EXPECT_EQ(*disk_shapes, storage::FindShapes(memory).value());

  // 4. Index-fed termination check agrees with both scanning modes.
  storage::ShapeIndex index = storage::ShapeIndex::Build(*loaded->database);
  std::vector<Shape> shapes = index.CurrentShapes();
  EXPECT_EQ(shapes, *disk_shapes);
  LCheckOptions indexed;
  indexed.precomputed_shapes = &shapes;
  auto verdict_indexed =
      IsChaseFiniteL(*loaded->database, loaded->tgds, indexed);
  ASSERT_TRUE(verdict_indexed.ok());
  LCheckOptions in_db;
  in_db.shape_finder = storage::ShapeFinderMode::kExists;
  auto verdict_db = IsChaseFiniteL(*loaded->database, loaded->tgds, in_db);
  ASSERT_TRUE(verdict_db.ok());
  EXPECT_EQ(verdict_indexed.value(), verdict_db.value());

  // 5. The verdict is confirmed by the bounded chase.
  ChaseOptions chase_options;
  chase_options.max_atoms = 500'000;
  auto chased = RunChase(*loaded->database, loaded->tgds, chase_options);
  ASSERT_TRUE(chased.ok());
  EXPECT_EQ(verdict_indexed.value(),
            chased->outcome == ChaseOutcome::kFixpoint);

  // 6. Uniform checks are sound w.r.t. the per-database verdict.
  auto uniform = acyclicity::IsChaseFiniteUniform(*loaded->schema,
                                                  loaded->tgds);
  ASSERT_TRUE(uniform.ok());
  if (uniform.value()) EXPECT_TRUE(verdict_indexed.value());
  if (acyclicity::IsJointlyAcyclic(*loaded->schema, loaded->tgds)) {
    EXPECT_TRUE(uniform.value());
  }

  std::remove(snapshot.c_str());
  std::remove(store_path.c_str());
}

TEST(ExtensionIntegrationTest, OntologyQueryAnsweringBothRoutes) {
  // A DL-Lite-style ontology answered by materialization AND rewriting;
  // both routes agree, and the explain/normalize tooling composes.
  auto program = ParseProgram(R"(
    person(ada). person(alan).
    advises(ada, alan).
    advises(X, Y) -> person(X).
    advises(X, Y) -> person(Y).
    person(X) -> memberOf(X, D).
    memberOf(X, D) -> dept(D).
  )");
  ASSERT_TRUE(program.ok());
  Schema* schema = program->schema.get();

  auto cq = query::ParseQuery("q(X) :- person(X), memberOf(X, D).", schema);
  ASSERT_TRUE(cq.ok());

  auto materialized =
      query::CertainAnswers(*program->database, program->tgds, *cq);
  ASSERT_TRUE(materialized.ok()) << materialized.status();

  auto rewriting = query::RewriteUnderTgds(*cq, program->tgds);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status();
  EXPECT_EQ(rewriting->Evaluate(*program->database),
            materialized->answers);
  EXPECT_EQ(materialized->answers.size(), 2u);  // ada, alan

  // The ontology terminates, so there is nothing to explain...
  auto witness =
      ExplainNonTerminationSL(*program->database, program->tgds);
  EXPECT_EQ(witness.status().code(), StatusCode::kFailedPrecondition);

  // ...until a cyclic axiom is added; then the witness pinpoints it.
  auto extended = ParseTgd("dept(D) -> headedBy(D, H), person(H).", schema);
  ASSERT_TRUE(extended.ok());
  std::vector<Tgd> cyclic = program->tgds;
  cyclic.push_back(std::move(extended).value());
  auto finite = IsChaseFiniteSL(*program->database, cyclic);
  ASSERT_TRUE(finite.ok());
  ASSERT_FALSE(finite.value());
  witness = ExplainNonTerminationSL(*program->database, cyclic);
  ASSERT_TRUE(witness.ok()) << witness.status();
  bool mentions_new_rule = false;
  for (const WitnessEdge& edge : witness->cycle) {
    mentions_new_rule |= edge.rule_index == cyclic.size() - 1;
  }
  EXPECT_TRUE(mentions_new_rule);
}

}  // namespace
}  // namespace chase
