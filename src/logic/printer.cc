#include "logic/printer.h"

#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

#include <sstream>

namespace chase {
namespace {

void AppendAtom(const Schema& schema, const Tgd& tgd, const RuleAtom& atom,
                std::string& out) {
  out += schema.PredicateName(atom.pred);
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ',';
    out += VariableName(tgd, atom.args[i]);
  }
  out += ')';
}

}  // namespace

std::string VariableName(const Tgd& tgd, VarId var) {
  if (tgd.IsUniversal(var)) {
    return std::string("X").append(std::to_string(var));
  }
  return std::string("Z").append(std::to_string(var - tgd.num_universal()));
}

std::string ToString(const Schema& schema, const Tgd& tgd,
                     const RuleAtom& atom) {
  std::string out;
  AppendAtom(schema, tgd, atom, out);
  return out;
}

std::string ToString(const Schema& schema, const Tgd& tgd) {
  std::string out;
  for (size_t i = 0; i < tgd.body().size(); ++i) {
    if (i > 0) out += ", ";
    AppendAtom(schema, tgd, tgd.body()[i], out);
  }
  out += " -> ";
  for (size_t i = 0; i < tgd.head().size(); ++i) {
    if (i > 0) out += ", ";
    AppendAtom(schema, tgd, tgd.head()[i], out);
  }
  out += '.';
  return out;
}

std::string ToString(const Schema& schema, const Database& database,
                     const GroundAtom& atom) {
  std::string out = schema.PredicateName(atom.pred);
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ',';
    const Term term = atom.args[i];
    if (IsNull(term)) {
      out += "_:n" + std::to_string(NullId(term));
    } else {
      out += database.ConstantName(ConstantId(term));
    }
  }
  out += ')';
  return out;
}

void PrintTgds(const Schema& schema, const std::vector<Tgd>& tgds,
               std::ostream& os) {
  for (const Tgd& tgd : tgds) os << ToString(schema, tgd) << '\n';
}

std::string TgdsToString(const Schema& schema, const std::vector<Tgd>& tgds) {
  std::ostringstream out;
  PrintTgds(schema, tgds, out);
  return out.str();
}

void PrintDatabase(const Database& database, std::ostream& os) {
  const Schema& schema = database.schema();
  for (PredId pred : database.NonEmptyPredicates()) {
    const uint32_t arity = schema.Arity(pred);
    const size_t rows = database.NumTuples(pred);
    for (size_t row = 0; row < rows; ++row) {
      auto tuple = database.Tuple(pred, row);
      os << schema.PredicateName(pred) << '(';
      for (uint32_t i = 0; i < arity; ++i) {
        if (i > 0) os << ',';
        os << database.ConstantName(tuple[i]);
      }
      os << ").\n";
    }
  }
}

}  // namespace chase
