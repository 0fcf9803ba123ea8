#include "chase/chase_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <span>
#include <unordered_set>

#include "base/signal_flag.h"
#include "base/status.h"
#include "chase/instance.h"
#include "chase/join_cursor.h"
#include "index/sharded_shape_index.h"
#include "io/binary_io.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/term.h"
#include "logic/tgd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {
namespace {

constexpr Term kUnbound = kUnboundTerm;
using Window = JoinCursor::Window;

// Trigger keys: [rule_index, bound values...]. For the oblivious chase the
// values are the full body assignment; for the semi-oblivious chase only the
// frontier restriction h|fr(σ).
struct KeyHash {
  size_t operator()(const std::vector<uint64_t>& key) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : key) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
};
using KeySet = std::unordered_set<std::vector<uint64_t>, KeyHash>;

// One rule's join plans (PlanJoin index ids): the body with nothing bound
// up front, and the head with the frontier bound.
struct RulePlan {
  std::vector<uint32_t> body;
  std::vector<uint32_t> head;
};

RulePlan PlanRule(
    const Tgd& tgd, bool with_head,
    const std::function<uint32_t(PredId, std::vector<uint32_t>)>& declare) {
  RulePlan plan;
  plan.body = PlanJoin(tgd.body(), std::vector<char>(tgd.num_vars(), 0),
                       declare);
  if (with_head) {
    std::vector<char> frontier(tgd.num_vars(), 0);
    for (VarId var : tgd.frontier()) frontier[var] = 1;
    plan.head = PlanJoin(tgd.head(), std::move(frontier), declare);
  }
  return plan;
}

// True iff some extension of `hom`'s frontier maps every head atom into
// `instance`, head position k matched within windows[k] — the restricted
// chase's satisfaction test. Existential variables of `hom` are ignored.
bool HeadSatisfied(JoinCursor& cursor, const Tgd& tgd,
                   std::span<const uint32_t> head_ids, const Instance& instance,
                   const IndexSet& indexes, const std::vector<Term>& hom,
                   std::span<const Window> windows) {
  cursor.Reset(instance, indexes, tgd.head(), head_ids, windows,
               tgd.num_vars());
  std::copy_n(hom.begin(), tgd.num_universal(), cursor.h().begin());
  return cursor.Next();
}

}  // namespace

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kFixpoint:
      return "fixpoint";
    case ChaseOutcome::kAtomLimit:
      return "atom-limit";
    case ChaseOutcome::kRoundLimit:
      return "round-limit";
    case ChaseOutcome::kInterrupted:
      return "interrupted";
  }
  return "?";
}

StatusOr<ChaseResult> RunChase(const Database& database,
                               const std::vector<Tgd>& tgds,
                               const ChaseOptions& options) {
  const Schema& schema = database.schema();
  CHASE_RETURN_IF_ERROR(CheckTgdsFitSchema(tgds, schema));

  if (options.checkpoint_path.empty() &&
      (options.checkpoint_every_rounds != 0 || options.checkpoint_on_signal)) {
    return InvalidArgumentError(
        "checkpoint_every_rounds/checkpoint_on_signal require a "
        "checkpoint_path");
  }
  // The program identity stamped into checkpoints and validated on resume;
  // only computed when either end of the protocol is in play (it
  // serializes the whole input).
  const uint64_t input_fingerprint =
      (!options.checkpoint_path.empty() || options.resume != nullptr)
          ? io::ProgramFingerprint(schema, database, tgds)
          : 0;

  ChaseResult result(Instance::FromDatabase(database));
  Instance& instance = result.instance;
  result.outcome = ChaseOutcome::kFixpoint;

  KeySet fired;
  RoundView view;
  const size_t num_preds = schema.NumPredicates();
  view.prev.assign(num_preds, 0);
  view.cur.assign(num_preds, 0);
  for (PredId pred = 0; pred < num_preds; ++pred) {
    view.cur[pred] = instance.AtomsOf(pred).size();
  }

  if (options.resume != nullptr) {
    const io::ChaseCheckpoint& ckpt = *options.resume;
    if (ckpt.input_fingerprint != input_fingerprint) {
      return InvalidArgumentError(
          "checkpoint was taken against a different program (input "
          "fingerprint mismatch) — resuming would silently diverge");
    }
    if (ckpt.variant != static_cast<uint32_t>(options.variant)) {
      return InvalidArgumentError(
          std::string("checkpoint was taken by a ") +
          ChaseVariantName(static_cast<ChaseVariant>(ckpt.variant)) +
          " chase, not " + ChaseVariantName(options.variant));
    }
    if (ckpt.relations.size() != num_preds) {
      return InvalidArgumentError(
          "checkpoint relation count does not match the schema");
    }
    // Rebuild the instance from the checkpoint alone: the fingerprint pins
    // the seed database (its facts are the prefix of the stored relations),
    // and replaying the stored insertion order reproduces the by-predicate
    // layout — and with it every downstream enumeration — bit-identically.
    Instance restored(&schema);
    for (PredId pred = 0; pred < num_preds; ++pred) {
      const io::ChaseCheckpoint::Relation& relation = ckpt.relations[pred];
      const uint32_t arity = schema.Arity(pred);
      if (relation.arity != arity) {
        return InvalidArgumentError(
            "checkpoint relation arity does not match the schema");
      }
      // Checkpoints are written after the round-window advance, so `cur`
      // always covers the whole relation.
      if (relation.cur * arity != relation.atoms.size()) {
        return InvalidArgumentError(
            "checkpoint round window does not cover the instance");
      }
      for (size_t row = 0; row * arity < relation.atoms.size(); ++row) {
        GroundAtom atom;
        atom.pred = pred;
        atom.args.assign(relation.atoms.begin() + row * arity,
                         relation.atoms.begin() + (row + 1) * arity);
        if (!restored.AddAtom(std::move(atom))) {
          return InvalidArgumentError(
              "checkpoint instance holds duplicate atoms");
        }
      }
      view.prev[pred] = relation.prev;
      view.cur[pred] = relation.cur;
    }
    restored.SetNextNull(ckpt.next_null);
    instance = std::move(restored);
    for (const std::vector<uint64_t>& key : ckpt.fired_keys) {
      fired.insert(key);
    }
    result.rounds = ckpt.rounds;
    result.triggers_fired = ckpt.triggers_fired;
  }

  std::vector<GroundAtom> pending;  // atoms produced in the current round
  const bool restricted = options.variant == ChaseVariant::kRestricted;

  // Every join column set is declared here, once the instance is in place:
  // the indexes are maintained write-through by AddAtom from now on, so
  // no enumeration below ever creates or extends one.
  std::vector<RulePlan> plans;
  plans.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    plans.push_back(PlanRule(tgd, restricted,
                             [&](PredId pred, std::vector<uint32_t> cols) {
                               return instance.DeclareIndex(pred,
                                                            std::move(cols));
                             }));
  }
  // The round's body cursor, and the cursor and head windows of the
  // restricted satisfaction probes.
  HomEnumerator body_enum;
  JoinCursor head_cursor;
  std::vector<Window> head_windows;

  // Observability (all off by default, every site behind one relaxed
  // load): a whole-run span, a span and log2 duration histogram per round,
  // and — when the caller hands in a sink — live progress published at
  // round boundaries plus every few thousand firings inside a round.
  obs::TraceSpan run_span("chase", "run", "rules",
                          static_cast<int64_t>(tgds.size()));
  obs::Histogram* round_hist =
      obs::MetricsRegistry::enabled()
          ? obs::MetricsRegistry::Get().GetHistogram("chase.round_us")
          : nullptr;
  constexpr uint64_t kProgressStride = 4096;  // firings between updates

  // Signal-triggered checkpoints: the handlers (base/signal_flag.h, the
  // repo's one sanctioned signal shim) only set lock-free atomic flags;
  // the loop polls them at round boundaries below and does the real work
  // — serialization, file I/O, metrics — on this thread.
  std::optional<ScopedSignalFlags> signal_flags;
  if (options.checkpoint_on_signal) signal_flags.emplace();
  obs::Counter* checkpoints_written =
      !options.checkpoint_path.empty() && obs::MetricsRegistry::enabled()
          ? obs::MetricsRegistry::Get().GetCounter(
                "chase.checkpoints_written")
          : nullptr;
  auto write_checkpoint = [&]() -> Status {
    obs::TraceSpan checkpoint_span("chase", "checkpoint", "round",
                                   static_cast<int64_t>(result.rounds));
    io::ChaseCheckpoint ckpt;
    ckpt.variant = static_cast<uint32_t>(options.variant);
    ckpt.input_fingerprint = input_fingerprint;
    ckpt.rounds = result.rounds;
    ckpt.triggers_fired = result.triggers_fired;
    ckpt.next_null = instance.NumNulls();
    ckpt.relations.resize(num_preds);
    for (PredId pred = 0; pred < num_preds; ++pred) {
      io::ChaseCheckpoint::Relation& relation = ckpt.relations[pred];
      relation.arity = schema.Arity(pred);
      relation.prev = view.prev[pred];
      relation.cur = view.cur[pred];
      const std::vector<GroundAtom>& atoms = instance.AtomsOf(pred);
      relation.atoms.reserve(atoms.size() * relation.arity);
      for (const GroundAtom& atom : atoms) {
        relation.atoms.insert(relation.atoms.end(), atom.args.begin(),
                              atom.args.end());
      }
    }
    // `fired` is insert/contains-only, so its hash order never reaches
    // chase results; sorting here makes checkpoint bytes canonical for a
    // given state (and satisfies the loader's ordering check).
    ckpt.fired_keys.assign(fired.begin(), fired.end());
    std::sort(ckpt.fired_keys.begin(), ckpt.fired_keys.end());
    CHASE_RETURN_IF_ERROR(
        io::SaveChaseCheckpoint(ckpt, options.checkpoint_path));
    if (checkpoints_written != nullptr) checkpoints_written->Add(1);
    return OkStatus();
  };

  while (true) {
    // Limit precedence: the atom budget outranks the round budget (see
    // chase_engine.h). Checking atoms first makes a seed database already
    // past max_atoms report kAtomLimit even at max_rounds = 0; mid-run
    // trips break at the bottom of their round, before the next top-of-
    // loop round check, so both orderings agree there too.
    if (instance.NumAtoms() > options.max_atoms) {
      result.outcome = ChaseOutcome::kAtomLimit;
      break;
    }
    if (result.rounds >= options.max_rounds) {
      result.outcome = ChaseOutcome::kRoundLimit;
      break;
    }
    obs::TraceSpan round_span("chase", "round", "round",
                              static_cast<int64_t>(result.rounds));
    const auto round_begin = round_hist != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    pending.clear();
    bool grew = false;
    bool hit_atom_limit = false;
    uint64_t atoms_now = instance.NumAtoms();

    // Applies one trigger: the firing decision, null allocation, and atom
    // insertion, in enumeration order.
    auto fire = [&](size_t rule, const std::vector<Term>& hom) {
      const Tgd& tgd = tgds[rule];
      // Decide whether this trigger fires. The restricted variant checks
      // the instance as it stands, atoms applied earlier in this round
      // included.
      if (restricted) {
        head_windows.clear();
        for (const RuleAtom& atom : tgd.head()) {
          head_windows.push_back({0, instance.AtomsOf(atom.pred).size()});
        }
        if (HeadSatisfied(head_cursor, tgd, plans[rule].head, instance,
                          instance.indexes(), hom, head_windows)) {
          return;
        }
      } else {
        std::vector<uint64_t> key;
        if (options.variant == ChaseVariant::kSemiOblivious) {
          key.reserve(1 + tgd.frontier().size());
          key.push_back(rule);
          for (VarId var : tgd.frontier()) key.push_back(hom[var]);
        } else {
          key.reserve(1 + tgd.num_universal());
          key.push_back(rule);
          for (VarId var = 0; var < tgd.num_universal(); ++var) {
            key.push_back(hom[var]);
          }
        }
        if (!fired.insert(std::move(key)).second) return;
      }
      ++result.triggers_fired;
      // result(σ, h): frontier variables keep their image, each
      // existential variable gets a fresh labelled null (unique per
      // trigger and variable, per Definition 3.1).
      std::vector<Term> null_of(tgd.num_vars(), kUnbound);
      for (const RuleAtom& head_atom : tgd.head()) {
        GroundAtom atom;
        atom.pred = head_atom.pred;
        atom.args.reserve(head_atom.args.size());
        for (VarId var : head_atom.args) {
          if (tgd.IsUniversal(var)) {
            atom.args.push_back(hom[var]);
          } else {
            if (null_of[var] == kUnbound) {
              null_of[var] = MakeNull(instance.NewNullId());
            }
            atom.args.push_back(null_of[var]);
          }
        }
        pending.push_back(std::move(atom));
      }
      // Apply eagerly so the restricted variant's satisfaction check
      // sees atoms added earlier in this round (a sequential order).
      for (GroundAtom& atom : pending) {
        Shape shape;
        uint64_t fingerprint = 0;
        if (options.shape_index != nullptr) {
          // Shapes depend only on the equality pattern, so nulls and
          // constants index alike; compute (with the content
          // fingerprint) before AddAtom consumes the atom.
          shape = Shape(atom.pred, IdOf<Term>(atom.args));
          fingerprint = index::TupleFingerprint(atom.pred, atom.args);
        }
        if (instance.AddAtom(std::move(atom))) {
          grew = true;
          ++atoms_now;
          if (options.shape_index != nullptr) {
            options.shape_index->AddShape(shape, 1, fingerprint);
          }
        }
      }
      pending.clear();
      if (atoms_now > options.max_atoms) hit_atom_limit = true;
      if (options.progress != nullptr &&
          result.triggers_fired % kProgressStride == 0) {
        options.progress->Update(result.rounds + 1, atoms_now,
                                 instance.NumNulls(), result.triggers_fired);
      }
    };

    // One task per (rule, delta position), in the round's trigger order
    // (chase/join_cursor.h).
    for (size_t rule = 0; rule < tgds.size() && !hit_atom_limit; ++rule) {
      const Tgd& tgd = tgds[rule];
      for (size_t delta_pos = 0;
           delta_pos < tgd.body().size() && !hit_atom_limit; ++delta_pos) {
        if (!body_enum.Reset(&tgd, plans[rule].body, &instance, &view,
                             delta_pos)) {
          continue;  // some position has no candidates: no triggers
        }
        obs::TraceSpan rule_span("chase", "rule", "rule",
                                 static_cast<int64_t>(rule));
        while (!hit_atom_limit && body_enum.Next()) fire(rule, body_enum.hom());
      }
    }

    ++result.rounds;
    if (round_hist != nullptr && obs::MetricsRegistry::enabled()) {
      round_hist->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - round_begin)
              .count()));
    }
    if (options.progress != nullptr) {
      options.progress->Update(result.rounds, instance.NumAtoms(),
                               instance.NumNulls(), result.triggers_fired);
    }
    if (hit_atom_limit) {
      result.outcome = ChaseOutcome::kAtomLimit;
      break;
    }
    if (!grew) {
      result.outcome = ChaseOutcome::kFixpoint;
      break;
    }
    // Advance the round window.
    for (PredId pred = 0; pred < num_preds; ++pred) {
      view.prev[pred] = view.cur[pred];
      view.cur[pred] = instance.AtomsOf(pred).size();
    }
    // Round-boundary checkpoint protocol: a periodic tick, a SIGUSR1
    // (write and continue), or a SIGTERM (write, then stop). Consuming the
    // flags clears them, so one posted request is served exactly once.
    if (!options.checkpoint_path.empty()) {
      const bool stop = options.checkpoint_on_signal &&
                        ScopedSignalFlags::ConsumeStopRequest();
      const bool asked = options.checkpoint_on_signal &&
                         ScopedSignalFlags::ConsumeCheckpointRequest();
      const bool tick =
          options.checkpoint_every_rounds != 0 &&
          result.rounds % options.checkpoint_every_rounds == 0;
      if (stop || asked || tick) {
        CHASE_RETURN_IF_ERROR(write_checkpoint());
      }
      if (stop) {
        result.outcome = ChaseOutcome::kInterrupted;
        break;
      }
    }
  }
  result.body_rows_probed = body_enum.rows_probed();
  result.body_homs = body_enum.homs();
  // Mirror the run's result counters into the registry so `--metrics`
  // surfaces them without the caller plumbing ChaseResult around.
  obs::SetGauge("chase.rounds", static_cast<double>(result.rounds));
  obs::SetGauge("chase.triggers_fired",
                static_cast<double>(result.triggers_fired));
  obs::SetGauge("chase.body_rows_probed",
                static_cast<double>(result.body_rows_probed));
  obs::SetGauge("chase.body_homs", static_cast<double>(result.body_homs));
  obs::SetGauge("chase.atoms", static_cast<double>(instance.NumAtoms()));
  obs::SetGauge("chase.nulls", static_cast<double>(instance.NumNulls()));
  return result;
}

bool Satisfies(const Instance& instance, const std::vector<Tgd>& tgds) {
  // The instance is read-only here, so the join indexes are local.
  IndexSet indexes;
  JoinCursor body;
  JoinCursor head;
  std::vector<Window> body_windows;
  std::vector<Window> head_windows;
  auto all_rows = [&](const std::vector<RuleAtom>& atoms,
                      std::vector<Window>* windows) {
    windows->clear();
    for (const RuleAtom& atom : atoms) {
      windows->push_back({0, instance.AtomsOf(atom.pred).size()});
    }
  };
  for (const Tgd& tgd : tgds) {
    const RulePlan plan =
        PlanRule(tgd, /*with_head=*/true,
                 [&](PredId pred, std::vector<uint32_t> cols) {
                   return indexes.Declare(pred, std::move(cols),
                                          instance.AtomsOf(pred));
                 });
    all_rows(tgd.body(), &body_windows);
    all_rows(tgd.head(), &head_windows);
    body.Reset(instance, indexes, tgd.body(), plan.body, body_windows,
               tgd.num_vars());
    while (body.Next()) {
      if (!HeadSatisfied(head, tgd, plan.head, instance, indexes, body.h(),
                         head_windows)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace chase
