// The index-backed join cursor against a full-scan oracle.
//
// The cursor (chase/join_cursor.h) rests on the claim that a posting index
// only skips rows the binding check would reject, so every match stream —
// order included — is a full scan's. FullScan below is that nested loop,
// kept as the oracle: seeded
// random multi-atom rules (repeated variables, empty posting lists,
// predicates wider than a machine word, every delta position) must produce
// the identical homomorphism sequence.
// The remaining tests pin write-through (an atom appended after a cursor or
// an index exists is visible to the next probe) and the body work counters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "chase/instance.h"
#include "chase/join_cursor.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace {

using Window = JoinCursor::Window;
using Homs = std::vector<std::vector<Term>>;

// The oracle: position k scans every row of windows[k] in ascending order,
// binding by plain comparison — no index, no shared binding code.
void FullScan(const std::vector<RuleAtom>& atoms, const Instance& instance,
              const std::vector<Window>& windows, std::vector<Term> h,
              size_t k, Homs* out) {
  if (k == atoms.size()) {
    out->push_back(h);
    return;
  }
  const RuleAtom& pattern = atoms[k];
  const std::vector<GroundAtom>& rows = instance.AtomsOf(pattern.pred);
  for (size_t row = windows[k].begin; row < windows[k].end; ++row) {
    std::vector<Term> next = h;
    bool ok = true;
    for (size_t i = 0; i < pattern.args.size() && ok; ++i) {
      Term& slot = next[pattern.args[i]];
      if (slot == kUnboundTerm) {
        slot = rows[row].args[i];
      } else {
        ok = slot == rows[row].args[i];
      }
    }
    if (ok) FullScan(atoms, instance, windows, std::move(next), k + 1, out);
  }
}

// The round window rule of the semi-naive enumeration.
std::vector<Window> DeltaWindows(const Tgd& tgd, const RoundView& view,
                                 size_t delta_pos) {
  std::vector<Window> windows;
  for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
    const PredId pred = tgd.body()[pos].pred;
    if (pos == delta_pos) {
      windows.push_back({view.PrevOf(pred), view.CurOf(pred)});
    } else if (pos < delta_pos) {
      windows.push_back({0, view.PrevOf(pred)});
    } else {
      windows.push_back({0, view.CurOf(pred)});
    }
  }
  return windows;
}

// A random workload: a schema with arities 1..3 plus two predicates wider
// than 64 columns, rules of 2-4 body atoms over a small variable pool (so
// variables repeat within and across atoms), and an instance holding
// planted body matches among random rows over a small domain.
struct Workload {
  Schema schema;
  std::vector<Tgd> tgds;
  std::vector<GroundAtom> atoms;
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  const uint32_t arities[] = {1, 2, 2, 3, 70, 130};
  for (uint32_t i = 0; i < 6; ++i) {
    auto pred = w.schema.AddPredicate("p" + std::to_string(i), arities[i]);
    EXPECT_TRUE(pred.ok());
  }
  const uint32_t num_preds = 6;
  const uint32_t domain = 3 + static_cast<uint32_t>(rng.Below(3));
  auto random_term = [&] {
    return MakeConstant(static_cast<uint32_t>(rng.Below(domain)));
  };
  for (int r = 0; r < 4; ++r) {
    const uint32_t num_vars = 2 + static_cast<uint32_t>(rng.Below(4));
    const size_t body_size = 2 + rng.Below(3);
    std::vector<RuleAtom> body;
    for (size_t k = 0; k < body_size; ++k) {
      const PredId pred = static_cast<PredId>(rng.Below(num_preds));
      std::vector<VarId> args(w.schema.Arity(pred));
      for (VarId& v : args) v = static_cast<VarId>(rng.Below(num_vars));
      body.emplace_back(pred, std::move(args));
    }
    // Two head atoms: body variables plus one existential (id num_vars).
    std::vector<RuleAtom> head;
    for (int k = 0; k < 2; ++k) {
      const PredId pred = static_cast<PredId>(rng.Below(num_preds));
      std::vector<VarId> args(w.schema.Arity(pred));
      for (VarId& v : args) {
        v = rng.Percent(25) ? num_vars
                            : body[0].args[rng.Below(body[0].args.size())];
      }
      head.emplace_back(pred, std::move(args));
    }
    auto tgd = Tgd::Create(std::move(body), std::move(head));
    EXPECT_TRUE(tgd.ok()) << tgd.status();
    // Planted matches: instantiate the body under random assignments.
    for (int plant = 0; plant < 6; ++plant) {
      std::vector<Term> value(tgd->num_vars());
      for (Term& t : value) t = random_term();
      for (const RuleAtom& atom : tgd->body()) {
        std::vector<Term> args;
        for (VarId v : atom.args) args.push_back(value[v]);
        w.atoms.emplace_back(atom.pred, std::move(args));
      }
    }
    w.tgds.push_back(std::move(tgd).value());
  }
  for (int i = 0; i < 60; ++i) {
    const PredId pred = static_cast<PredId>(rng.Below(num_preds));
    std::vector<Term> args(w.schema.Arity(pred));
    for (Term& t : args) t = random_term();
    w.atoms.emplace_back(pred, std::move(args));
  }
  // Shuffle so planted rows spread over the round windows.
  for (size_t i = w.atoms.size(); i > 1; --i) {
    std::swap(w.atoms[i - 1], w.atoms[rng.Below(i)]);
  }
  return w;
}

TEST(JoinCursorTest, BodiesMatchFullScanAtEveryDeltaPosition) {
  uint64_t checked_tasks = 0;
  uint64_t nonempty_tasks = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Workload w = MakeWorkload(seed);
    Instance instance(&w.schema);
    // Declare the body indexes halfway through loading: the first half is
    // bulk-built at declaration, the second half arrives write-through.
    const size_t half = w.atoms.size() / 2;
    for (size_t i = 0; i < half; ++i) instance.AddAtom(w.atoms[i]);
    std::vector<std::vector<uint32_t>> body_ids;
    for (const Tgd& tgd : w.tgds) {
      body_ids.push_back(
          PlanJoin(tgd.body(), std::vector<char>(tgd.num_vars(), 0),
                   [&](PredId pred, std::vector<uint32_t> cols) {
                     return instance.DeclareIndex(pred, std::move(cols));
                   }));
    }
    for (size_t i = half; i < w.atoms.size(); ++i) instance.AddAtom(w.atoms[i]);

    Rng rng(seed * 7919);
    RoundView view;
    for (PredId pred = 0; pred < w.schema.NumPredicates(); ++pred) {
      const size_t size = instance.AtomsOf(pred).size();
      const size_t cur = size - rng.Below(size / 3 + 1);
      view.cur.push_back(cur);
      view.prev.push_back(rng.Below(cur + 1));
    }

    for (size_t rule = 0; rule < w.tgds.size(); ++rule) {
      const Tgd& tgd = w.tgds[rule];
      for (size_t d = 0; d < tgd.body().size(); ++d) {
        const std::string label = "seed " + std::to_string(seed) + ", rule " +
                                  std::to_string(rule) + ", delta " +
                                  std::to_string(d);
        Homs expected;
        FullScan(tgd.body(), instance, DeltaWindows(tgd, view, d),
                 std::vector<Term>(tgd.num_vars(), kUnboundTerm), 0,
                 &expected);
        ++checked_tasks;
        if (!expected.empty()) ++nonempty_tasks;

        // HomEnumerator's task replays the full scan. A task it reports
        // empty has no match and probes no row.
        HomEnumerator e;
        const bool started =
            e.Reset(&tgd, body_ids[rule], &instance, &view, d);
        Homs got;
        while (e.Next()) got.push_back(e.hom());
        EXPECT_EQ(got, expected) << label;
        EXPECT_EQ(e.homs(), expected.size()) << label;
        if (!started) {
          EXPECT_TRUE(expected.empty()) << label;
          EXPECT_EQ(e.rows_probed(), 0u) << label;
        }
      }
    }
  }
  // The sweep exercises real joins, not just empty tasks.
  EXPECT_GT(nonempty_tasks, checked_tasks / 4);
}

TEST(JoinCursorTest, PreBoundHeadsMatchFullScan) {
  // The restricted-chase head probe: frontier variables pre-bound, the
  // head plan keyed on them and on variables of earlier head atoms.
  for (uint64_t seed = 100; seed < 140; ++seed) {
    Workload w = MakeWorkload(seed);
    Instance instance(&w.schema);
    for (const GroundAtom& atom : w.atoms) instance.AddAtom(atom);
    Rng rng(seed);
    for (const Tgd& tgd : w.tgds) {
      std::vector<char> frontier(tgd.num_vars(), 0);
      for (VarId v : tgd.frontier()) frontier[v] = 1;
      const std::vector<uint32_t> ids =
          PlanJoin(tgd.head(), frontier,
                   [&](PredId pred, std::vector<uint32_t> cols) {
                     return instance.DeclareIndex(pred, std::move(cols));
                   });
      std::vector<Window> windows;
      for (const RuleAtom& atom : tgd.head()) {
        windows.push_back({0, instance.AtomsOf(atom.pred).size()});
      }
      // Random frontier values over (and just past) the data's domain:
      // some keys have posting lists, some do not.
      std::vector<Term> h(tgd.num_vars(), kUnboundTerm);
      for (VarId v : tgd.frontier()) {
        h[v] = MakeConstant(static_cast<uint32_t>(rng.Below(4)));
      }
      Homs expected;
      FullScan(tgd.head(), instance, windows, h, 0, &expected);
      JoinCursor cursor;
      cursor.Reset(instance, instance.indexes(), tgd.head(), ids, windows,
                   tgd.num_vars());
      for (VarId v : tgd.frontier()) cursor.h()[v] = h[v];
      Homs got;
      while (cursor.Next()) got.push_back(cursor.h());
      EXPECT_EQ(got, expected) << "seed " << seed;
    }
  }
}

TEST(JoinCursorTest, EmptyPostingListEndsThePosition) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  const PredId s = schema.AddPredicate("s", 2).value();
  Instance instance(&schema);
  instance.AddAtom(GroundAtom(r, {MakeConstant(0), MakeConstant(1)}));
  instance.AddAtom(GroundAtom(s, {MakeConstant(2), MakeConstant(3)}));
  const std::vector<RuleAtom> body = {RuleAtom(r, {0, 1}),
                                      RuleAtom(s, {1, 2})};
  const std::vector<uint32_t> ids =
      PlanJoin(body, std::vector<char>(3, 0),
               [&](PredId pred, std::vector<uint32_t> cols) {
                 return instance.DeclareIndex(pred, std::move(cols));
               });
  ASSERT_EQ(ids[0], IndexSet::kScan);
  ASSERT_NE(ids[1], IndexSet::kScan);
  const std::vector<Window> windows = {{0, 1}, {0, 1}};
  JoinCursor cursor;
  cursor.Reset(instance, instance.indexes(), body, ids, windows, 3);
  EXPECT_FALSE(cursor.Next());
  // Only the position-0 row was probed: the key 1 has no s row.
  EXPECT_EQ(cursor.rows_probed(), 1u);
  EXPECT_FALSE(cursor.Next());
}

TEST(JoinCursorTest, AppendsBetweenStepsAreVisibleThroughTheIndex) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  Instance instance(&schema);
  const uint32_t id = instance.DeclareIndex(r, {0});
  const std::vector<RuleAtom> atoms = {RuleAtom(r, {0, 1})};
  const std::vector<uint32_t> ids = {id};
  auto probe = [&](Term key) {
    const std::vector<Window> windows = {{0, instance.AtomsOf(r).size()}};
    JoinCursor cursor;
    cursor.Reset(instance, instance.indexes(), atoms, ids, windows, 2);
    cursor.h()[0] = key;
    Homs got;
    while (cursor.Next()) got.push_back(cursor.h());
    return got;
  };
  EXPECT_TRUE(probe(MakeConstant(7)).empty());
  instance.AddAtom(GroundAtom(r, {MakeConstant(7), MakeNull(0)}));
  instance.AddAtom(GroundAtom(r, {MakeConstant(8), MakeNull(1)}));
  instance.AddAtom(GroundAtom(r, {MakeConstant(7), MakeNull(2)}));
  EXPECT_EQ(probe(MakeConstant(7)),
            (Homs{{MakeConstant(7), MakeNull(0)},
                  {MakeConstant(7), MakeNull(2)}}));
}

TEST(JoinCursorTest, RestrictedTriggerSeesSameRoundHeadWitness) {
  // Round 1 fires r0 on a(1), appending p(1, n0); r1's trigger on b(1) in
  // the same round finds p(1, n0) through the head index on p's first
  // column and must not fire. Without write-through it would fire too.
  auto program = ParseProgram(
      "a(c1). b(c1).\n"
      "a(X) -> p(X, Y).\n"
      "b(X) -> p(X, Z).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto result = RunChase(*program->database, program->tgds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(result->triggers_fired, 1u);
  EXPECT_EQ(result->instance.NumAtoms(), 3u);
}

TEST(JoinCursorTest, KeyJoinProbesAtMostTwoRowsPerHomomorphism) {
  // A chain key-join: each r row joins exactly one s row, so the cursor
  // probes each r row and its one partner (a full scan would probe all of
  // s for every r row).
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  const PredId s = schema.AddPredicate("s", 2).value();
  ASSERT_TRUE(schema.AddPredicate("t", 2).ok());
  Database database(&schema);
  constexpr uint32_t kRows = 300;
  for (uint32_t i = 0; i < kRows; ++i) {
    const uint32_t a = database.InternConstant("a" + std::to_string(i));
    const uint32_t b = database.InternConstant("b" + std::to_string(i));
    const uint32_t c = database.InternConstant("c" + std::to_string(i));
    ASSERT_TRUE(database.AddFact(r, std::vector<uint32_t>{a, b}).ok());
    ASSERT_TRUE(database.AddFact(s, std::vector<uint32_t>{b, c}).ok());
  }
  auto tgds = ParseTgds("r(X, Y), s(Y, Z) -> t(X, Z).", &schema);
  ASSERT_TRUE(tgds.ok()) << tgds.status();
  auto result = RunChase(database, *tgds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->body_homs, kRows);
  EXPECT_LE(result->body_rows_probed, 2 * result->body_homs);
}

}  // namespace
}  // namespace chase
