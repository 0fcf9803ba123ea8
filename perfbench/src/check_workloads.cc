// The termination-check workloads: sl_rules (Fig. 1), l_memdb (Sec. 8,
// in-memory scan plan) and l_diskdb (Fig. 4, in-database exists plan over
// the pager). Each operation receives rule text and returns a verdict.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/dynamic_simplification.h"
#include "core/is_chase_finite.h"
#include "core/weak_acyclicity.h"
#include "exec/frontier_pool.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "graph/dependency_graph.h"
#include "graph/tarjan.h"
#include "harness.h"
#include "index/find_shapes.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/schema.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace perfbench {
namespace {

using chase::Database;
using chase::PredId;
using chase::Program;
using chase::Schema;
using chase::Shape;
using chase::Status;
using chase::StatusOr;
using chase::Tgd;

// The Sec. 7/8 base schema: predicates p0, p1, ... of arity 1–5. Arities
// cycle instead of being drawn, so every seed sees the same arity mix and
// the same size of shape lattices.
std::unique_ptr<Schema> BaseSchema(uint32_t count) {
  auto schema = std::make_unique<Schema>();
  for (uint32_t i = 0; i < count; ++i) {
    if (!schema->AddPredicate("p" + std::to_string(i), 1 + i % 5).ok()) {
      std::abort();  // fresh names, arity in range
    }
  }
  return schema;
}

Expected Defect(const Status& status) {
  Expected expected;
  expected.defect = std::string(status.message());
  if (expected.defect.empty()) expected.defect = "reference failed";
  return expected;
}

// D_Σ (Remark 1): one all-distinct fact per predicate of the schema.
void AddInducedFacts(const Schema& schema, Database* db) {
  db->EnsureAnonymousDomain(Schema::kMaxArity);
  std::vector<uint32_t> tuple;
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    tuple.clear();
    for (uint32_t i = 0; i < schema.Arity(pred); ++i) tuple.push_back(i);
    (void)db->AddFact(pred, tuple);  // arity matches by construction
  }
}

// Declares `from`'s predicates, in order, into a fresh schema: the
// program's copy of the catalog, so parsed rules get the same ids.
StatusOr<std::unique_ptr<Schema>> CopySchema(const Schema& from) {
  auto schema = std::make_unique<Schema>();
  for (PredId pred = 0; pred < from.NumPredicates(); ++pred) {
    CHASE_ASSIGN_OR_RETURN(
        PredId copied,
        schema->AddPredicate(from.PredicateName(pred), from.Arity(pred)));
    if (copied != pred) return chase::InternalError("schema copy mismatch");
  }
  return schema;
}

// The layers after FindShapes, composed from public calls: dynamic
// simplification, the dependency graph of simple_D(Σ), special SCCs.
// Returns the verdict of Algorithm 3 (true = finite).
StatusOr<bool> SimplifyGraphScc(const Schema& schema,
                                const std::vector<Tgd>& tgds,
                                const std::vector<Shape>& shapes,
                                Tracer* tracer, Counters* counters) {
  std::optional<chase::DynamicSimplificationResult> simplified;
  {
    Tracer::Scope span(tracer, "core.simplify");
    CHASE_ASSIGN_OR_RETURN(
        chase::DynamicSimplificationResult result,
        chase::DynamicSimplificationFromShapes(schema, tgds, shapes));
    simplified.emplace(std::move(result));
  }
  std::optional<chase::DependencyGraph> graph;
  {
    Tracer::Scope span(tracer, "graph.build");
    graph.emplace(chase::BuildDependencyGraph(
        simplified->shape_schema->schema(), simplified->tgds));
  }
  size_t special = 0;
  {
    Tracer::Scope span(tracer, "graph.scc");
    special = chase::FindSpecialSccs(graph->graph()).components.size();
  }
  (*counters)["core.db_shapes"] += simplified->num_initial_shapes;
  (*counters)["core.derived_shapes"] += simplified->num_derived_shapes;
  (*counters)["core.simplified_tgds"] += simplified->tgds.size();
  (*counters)["graph.nodes"] += graph->num_nodes();
  (*counters)["graph.edges"] += graph->num_edges();
  (*counters)["graph.special_sccs"] += special;
  return special == 0;
}

// ---------------------------------------------------------------------------
// sl_rules

class SlRules final : public Workload {
 public:
  SlRules(uint64_t seed, Scale scale) {
    const bool tiny = scale == Scale::kTiny;
    chase::Rng rng(seed ^ 0x5151);
    const std::unique_ptr<Schema> base = BaseSchema(tiny ? 100 : 1000);
    // Fig. 1's profiles: rule counts spread over [1, 30K], predicate counts
    // over [200, 400]. Sizes are fixed and only the rules vary with the
    // seed. The list is rotated so that input 0, the one set-up runs, is
    // the median input; with an odd count the median operation falls
    // inside one input's samples.
    for (uint64_t k = 0; k < 5; ++k) {
      chase::TgdGenParams params;
      params.ssize = static_cast<uint32_t>(tiny ? 20 + 5 * k : 200 + 50 * k);
      params.tsize = (tiny ? 60 : 3'000) * (2 * k + 1);
      params.tclass = chase::TgdClass::kSimpleLinear;
      params.seed = rng.Next();
      auto tgds = chase::GenerateTgds(*base, params);
      if (!tgds.ok()) std::abort();
      rules_.push_back(tgds->size());
      texts_.push_back(chase::TgdsToString(*base, *tgds));
    }
    std::rotate(rules_.begin(), rules_.begin() + 2, rules_.end());
    std::rotate(texts_.begin(), texts_.begin() + 2, texts_.end());
  }

  size_t NumInputs() const override { return texts_.size(); }
  const char* ItemUnit() const override { return "rules"; }
  const char* ThroughputName() const override { return "rules_per_s"; }
  std::string Describe(size_t i) const override {
    return std::to_string(rules_[i]) + " simple-linear rules, " +
           std::to_string(texts_[i].size()) + " bytes";
  }

  // Algorithm 3 (IsChaseFiniteL) on the same rules and D_Σ.
  Expected Reference(size_t i) const override {
    auto program = chase::ParseProgram(texts_[i]);
    if (!program.ok()) return Defect(program.status());
    AddInducedFacts(*program->schema, program->database.get());
    auto finite = chase::IsChaseFiniteL(*program->database, program->tgds);
    if (!finite.ok()) return Defect(finite.status());
    return {{*finite ? 1 : 0}, ""};
  }

  Status SetUp() override { return chase::OkStatus(); }

  StatusOr<OpOutput> Run(size_t i, Tracer* tracer) override {
    OpOutput out;
    std::optional<Program> program;
    {
      Tracer::Scope span(tracer, "logic.parse");
      CHASE_ASSIGN_OR_RETURN(Program parsed, chase::ParseProgram(texts_[i]));
      program.emplace(std::move(parsed));
    }
    {
      Tracer::Scope span(tracer, "logic.load_db");
      AddInducedFacts(*program->schema, program->database.get());
    }
    out.items = static_cast<double>(program->tgds.size());
    bool finite = false;
    if (tracer == nullptr) {
      CHASE_ASSIGN_OR_RETURN(
          finite, chase::IsChaseFiniteSL(*program->database, program->tgds));
    } else {
      // Algorithm 1 composed from public calls.
      std::optional<chase::DependencyGraph> graph;
      {
        Tracer::Scope span(tracer, "graph.build");
        graph.emplace(chase::BuildDependencyGraph(*program->schema,
                                                  program->tgds));
      }
      std::optional<chase::SpecialSccs> special;
      {
        Tracer::Scope span(tracer, "graph.scc");
        special.emplace(chase::FindSpecialSccs(graph->graph()));
      }
      finite = special->empty();
      if (!finite) {
        Tracer::Scope span(tracer, "core.support");
        chase::storage::Catalog catalog(program->database.get());
        finite = !chase::Supports(catalog, *graph, special->representatives);
      }
      out.counters["logic.parse_bytes"] =
          static_cast<double>(texts_[i].size());
      out.counters["graph.nodes"] = graph->num_nodes();
      out.counters["graph.edges"] = graph->num_edges();
      out.counters["graph.special_sccs"] = special->components.size();
    }
    out.result = {finite ? 1 : 0};
    return out;
  }

 private:
  std::vector<std::string> texts_;
  std::vector<size_t> rules_;
};

// ---------------------------------------------------------------------------
// l_memdb and l_diskdb

class LCheck final : public Workload {
 public:
  LCheck(uint64_t seed, Scale scale, bool disk) : disk_(disk) {
    const bool tiny = scale == Scale::kTiny;
    // Sec. 8's database D*: 1000 predicates of arity 1–5, 1000 tuples each
    // over a 500K-constant domain (|shape(D)| ≈ 15K). As in the paper, one
    // fixed database serves every rule set; only the rules vary with the
    // seed.
    base_ = BaseSchema(tiny ? 60 : 1000);
    db_ = std::make_unique<Database>(base_.get());
    std::vector<PredId> preds(base_->NumPredicates());
    std::iota(preds.begin(), preds.end(), 0);
    chase::Rng db_rng(kDatabaseSeed);
    if (!chase::PopulateRelations(db_.get(), preds, tiny ? 5'000 : 500'000,
                                  tiny ? 100 : 1'000, &db_rng)
             .ok()) {
      std::abort();
    }
    chase::Rng rng(seed ^ (disk ? 0xd15c : 0x3e3));
    // Input 0: few rules with few existentials, re-drawn until the check
    // says FINITE, so every input list holds both verdicts. Inputs 1–4:
    // Sec. 8's 5K linear rules over 240–360 predicates, which come out
    // INFINITE. With five inputs the median operation falls inside one
    // input's samples.
    FindFiniteRules(tiny ? 40 : 500, tiny ? 30 : 300, &rng);
    for (uint32_t k = 0; k < 4; ++k) {
      chase::TgdGenParams params;
      params.ssize = tiny ? 24 + 4 * k : 240 + 40 * k;
      params.tsize = tiny ? 300 : 5'000;
      params.tclass = chase::TgdClass::kLinear;
      params.seed = rng.Next();
      auto tgds = chase::GenerateTgds(*base_, params);
      if (!tgds.ok()) std::abort();
      AddInput(*tgds);
    }
    disk_path_ = ".bench_out/l_diskdb." + std::to_string(getpid()) + ".db";
  }

  ~LCheck() override {
    if (disk_) std::remove(disk_path_.c_str());
  }

  size_t NumInputs() const override { return texts_.size(); }
  const char* ItemUnit() const override { return "tuples"; }
  const char* ThroughputName() const override { return "tuples_per_s"; }
  std::string Describe(size_t i) const override {
    return std::to_string(rules_[i]) + " linear rules over " +
           std::to_string(num_tuples_) + " tuples";
  }

  // Theorem 3.6: static simplification of D and Σ, then Algorithm 1.
  Expected Reference(size_t i) const override {
    auto schema = CopySchema(*base_);
    if (!schema.ok()) return Defect(schema.status());
    auto tgds = chase::ParseTgds(texts_[i], schema->get());
    if (!tgds.ok()) return Defect(tgds.status());
    auto finite = chase::IsChaseFiniteLStatic(*db_, *tgds);
    if (!finite.ok()) return Defect(finite.status());
    return {{*finite ? 1 : 0}, ""};
  }

  Status SetUp() override {
    CHASE_ASSIGN_OR_RETURN(schema_, CopySchema(*base_));
    if (!disk_) {
      // Load the database into the program's row store.
      resident_ = std::make_unique<Database>(schema_.get());
      for (PredId pred = 0; pred < base_->NumPredicates(); ++pred) {
        const uint32_t arity = base_->Arity(pred);
        const auto tuples = db_->Tuples(pred);
        for (size_t at = 0; at < tuples.size(); at += arity) {
          CHASE_RETURN_IF_ERROR(
              resident_->AddFact(pred, tuples.subspan(at, arity)));
        }
      }
      num_tuples_ = resident_->TotalFacts();
      return chase::OkStatus();
    }
    // Write the database file; operations open it themselves. The check
    // itself only needs the schema, so the resident database stays empty.
    resident_ = std::make_unique<Database>(schema_.get());
    std::remove(disk_path_.c_str());
    CHASE_ASSIGN_OR_RETURN(
        auto created,
        chase::pager::DiskDatabase::Create(disk_path_, *db_, kFrames));
    num_tuples_ = created->TotalTuples();
    return chase::OkStatus();
  }

  // Operations read the resident database or the disk file, never D*.
  void DropGenerated() override { db_.reset(); }

  StatusOr<OpOutput> Run(size_t i, Tracer* tracer) override {
    OpOutput out;
    out.items = static_cast<double>(num_tuples_);
    std::vector<Tgd> tgds;
    {
      Tracer::Scope span(tracer, "logic.parse");
      CHASE_ASSIGN_OR_RETURN(tgds,
                             chase::ParseTgds(texts_[i], schema_.get()));
    }
    if (tracer != nullptr) {
      out.counters["logic.parse_bytes"] =
          static_cast<double>(texts_[i].size());
    }
    bool finite = false;
    if (!disk_) {
      if (tracer == nullptr) {
        CHASE_ASSIGN_OR_RETURN(finite,
                               chase::IsChaseFiniteL(*resident_, tgds));
      } else {
        chase::storage::Catalog catalog(resident_.get());
        chase::storage::MemoryShapeSource source(&catalog);
        std::vector<Shape> shapes;
        {
          Tracer::Scope span(tracer, "storage.find_shapes");
          CHASE_ASSIGN_OR_RETURN(shapes, chase::index::FindShapes(source));
        }
        AddAccess(source.stats(), &out.counters);
        CHASE_ASSIGN_OR_RETURN(
            finite,
            SimplifyGraphScc(*schema_, tgds, shapes, tracer, &out.counters));
      }
      out.result = {finite ? 1 : 0};
      return out;
    }

    std::unique_ptr<chase::pager::DiskDatabase> disk_db;
    {
      Tracer::Scope span(tracer, "pager.open");
      CHASE_ASSIGN_OR_RETURN(
          disk_db, chase::pager::DiskDatabase::Open(disk_path_, kFrames));
    }
    chase::pager::DiskShapeSource source(disk_db.get());
    chase::FrontierStats frontier;
    chase::storage::FindShapesOptions options;
    options.mode = chase::storage::ShapeFinderMode::kExists;
    options.threads = kThreads;
    options.frontier_stats = &frontier;
    const chase::storage::IoCounters io_before = source.Io();
    std::vector<Shape> shapes;
    {
      Tracer::Scope span(tracer, "storage.find_shapes");
      CHASE_ASSIGN_OR_RETURN(shapes,
                             chase::index::FindShapes(source, options));
    }
    if (tracer == nullptr) {
      chase::LCheckOptions check;
      check.precomputed_shapes = &shapes;
      CHASE_ASSIGN_OR_RETURN(finite,
                             chase::IsChaseFiniteL(*resident_, tgds, check));
    } else {
      const chase::storage::IoCounters io = source.Io().Since(io_before);
      AddAccess(source.stats(), &out.counters);
      out.counters["pager.pages_read"] = io.pages_read;
      out.counters["pager.pool_hits"] = io.pool_hits;
      out.counters["pager.pool_misses"] = io.pool_misses;
      out.counters["exec.frontier_depths"] = frontier.depths;
      double max_worker = 0, sum_worker = 0;
      for (uint64_t count : frontier.worker_expanded) {
        max_worker = std::max(max_worker, static_cast<double>(count));
        sum_worker += static_cast<double>(count);
      }
      if (!frontier.worker_expanded.empty()) {
        out.counters["exec.worker_max"] = max_worker;
        out.counters["exec.worker_mean"] =
            sum_worker / static_cast<double>(frontier.worker_expanded.size());
      }
      CHASE_ASSIGN_OR_RETURN(
          finite,
          SimplifyGraphScc(*schema_, tgds, shapes, tracer, &out.counters));
    }
    out.result = {finite ? 1 : 0};
    return out;
  }

  std::string CheckReferences(
      const std::vector<Expected>& expected) const override {
    bool finite = false, infinite = false;
    for (const Expected& e : expected) {
      if (e.result.empty()) continue;
      (e.result[0] != 0 ? finite : infinite) = true;
    }
    return finite && infinite ? ""
                              : "the input list lacks a FINITE or an "
                                "INFINITE verdict";
  }

  std::vector<std::pair<std::string, std::string>> NonRepeating()
      const override {
    if (!disk_) return {};
    return {
        {"pager.pages_read",
         "two exists-plan workers share the 256-frame pool; which pages are "
         "resident when a probe starts depends on thread interleaving"},
        {"pager.pool_hit_ratio", "follows pager.pages_read"},
        {"exec.worker_imbalance",
         "work is dealt to whichever worker is free first"},
    };
  }

 private:
  static constexpr uint64_t kDatabaseSeed = 8;
  static constexpr uint32_t kFrames = 256;  // 2 MiB of 8 KiB pages
  static constexpr unsigned kThreads = 2;

  static void AddAccess(const chase::storage::AccessStats& access,
                        Counters* counters) {
    (*counters)["storage.tuples_scanned"] += access.tuples_scanned;
    (*counters)["storage.exists_queries"] += access.exists_queries;
  }

  void AddInput(const std::vector<Tgd>& tgds) {
    rules_.push_back(tgds.size());
    texts_.push_back(chase::TgdsToString(*base_, tgds));
  }

  void FindFiniteRules(uint64_t rules, uint32_t preds, chase::Rng* rng) {
    chase::storage::Catalog catalog(db_.get());
    auto shapes =
        chase::index::FindShapes(chase::storage::MemoryShapeSource(&catalog));
    if (!shapes.ok()) std::abort();
    chase::LCheckOptions options;
    options.precomputed_shapes = &*shapes;
    std::vector<Tgd> last;
    for (int attempt = 0; attempt < 64; ++attempt) {
      chase::TgdGenParams params;
      params.ssize = preds;
      params.tsize = rules;
      params.tclass = chase::TgdClass::kLinear;
      params.existential_percent = 1;
      params.seed = rng->Next();
      auto tgds = chase::GenerateTgds(*base_, params);
      if (!tgds.ok()) std::abort();
      auto finite = chase::IsChaseFiniteL(*db_, *tgds, options);
      last = std::move(*tgds);
      if (finite.ok() && *finite) break;
    }
    // If no draw came out FINITE the last one is kept, and CheckReferences
    // fails the run.
    AddInput(last);
  }

  const bool disk_;
  std::unique_ptr<Schema> base_;      // generated catalog
  std::unique_ptr<Database> db_;      // generated database
  std::vector<std::string> texts_;    // rule text per input
  std::vector<size_t> rules_;
  std::string disk_path_;
  // Program state built by SetUp.
  std::unique_ptr<Schema> schema_;
  std::unique_ptr<Database> resident_;
  uint64_t num_tuples_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSlRules(uint64_t seed, Scale scale) {
  return std::make_unique<SlRules>(seed, scale);
}

std::unique_ptr<Workload> MakeLMemDb(uint64_t seed, Scale scale) {
  return std::make_unique<LCheck>(seed, scale, /*disk=*/false);
}

std::unique_ptr<Workload> MakeLDiskDb(uint64_t seed, Scale scale) {
  return std::make_unique<LCheck>(seed, scale, /*disk=*/true);
}

}  // namespace perfbench
