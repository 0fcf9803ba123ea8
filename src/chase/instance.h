// A (finite prefix of a possibly infinite) instance: a deduplicated set of
// ground atoms over constants and labelled nulls, grouped by predicate. This
// is the structure the chase engines grow.
//
// The instance also owns the join indexes its matchers probe: one posting
// index per declared (predicate, bound-column set), maintained write-through
// by AddAtom (chase/join_cursor.h explains how the cursor uses them).

#ifndef CHASE_CHASE_INSTANCE_H_
#define CHASE_CHASE_INSTANCE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"

namespace chase {

// Posting lists over one predicate's relation for one bound-column set:
// for each key, the ascending row ids whose values at `cols` hash to it.
// Distinct value tuples may share a key, so every candidate a list yields
// must be re-checked against the pattern (JoinCursor does). Lists are
// append-only and rows arrive in ascending order, so a row window
// [begin, end) is a lower_bound cut inside a list. Row ids are 32-bit: a
// relation of 2^32 atoms would not fit in memory anyway.
class PostingIndex {
 public:
  explicit PostingIndex(std::vector<uint32_t> cols) : cols_(std::move(cols)) {}

  const std::vector<uint32_t>& cols() const { return cols_; }

  // The key of the values value_of(c) for c in `cols`.
  template <typename ValueOf>
  static uint64_t Key(const std::vector<uint32_t>& cols, ValueOf&& value_of) {
    uint64_t key = 0x9e3779b97f4a7c15ULL;
    for (uint32_t c : cols) key = Mix64(key ^ value_of(c));
    return key;
  }

  // The posting list of `key`, or null when no row has it. The list object
  // stays at its address while the index lives (map nodes never move), but
  // its buffer may reallocate on Append: hold the list, not its elements.
  const std::vector<uint32_t>* Find(uint64_t key) const {
    auto it = lists_.find(key);
    return it == lists_.end() ? nullptr : &it->second;
  }

  // Indexes `row`, which must exceed every row indexed so far.
  void Append(const GroundAtom& atom, uint32_t row) {
    lists_[Key(cols_, [&](uint32_t c) { return atom.args[c]; })].push_back(
        row);
  }

 private:
  std::vector<uint32_t> cols_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> lists_;
};

// The posting indexes over one set of relations, deduplicated by
// (predicate, columns) and addressed by dense id.
class IndexSet {
 public:
  // Marks a join position with no bound column: scan its row window.
  static constexpr uint32_t kScan = UINT32_MAX;

  // The id of the index on (pred, cols), built over `rows` (the predicate's
  // current relation) when first declared. Ids stay valid; PostingIndex
  // addresses only until the next Declare.
  uint32_t Declare(PredId pred, std::vector<uint32_t> cols,
                   const std::vector<GroundAtom>& rows);

  // The index `id` names, or null for kScan.
  const PostingIndex* Get(uint32_t id) const {
    return id == kScan ? nullptr : &indexes_[id];
  }

  // Write-through: indexes `atom`, stored at `row` of its predicate, in
  // every index declared on that predicate.
  void Append(const GroundAtom& atom, size_t row) {
    if (atom.pred >= by_pred_.size()) return;
    for (uint32_t id : by_pred_[atom.pred]) {
      indexes_[id].Append(atom, static_cast<uint32_t>(row));
    }
  }

 private:
  std::vector<PostingIndex> indexes_;
  std::vector<std::vector<uint32_t>> by_pred_;  // index ids per predicate
};

class Instance {
 public:
  explicit Instance(const Schema* schema) : schema_(schema) {}

  // Seeds an instance with the facts of `database`.
  static Instance FromDatabase(const Database& database);

  const Schema& schema() const { return *schema_; }

  // Adds an atom; returns true iff it was not already present. A new atom
  // is appended to every declared index on its predicate before returning.
  bool AddAtom(GroundAtom atom);

  bool Contains(const GroundAtom& atom) const {
    return membership_.count(atom) > 0;
  }

  const std::vector<GroundAtom>& AtomsOf(PredId pred) const {
    static const std::vector<GroundAtom> kEmpty;
    return pred < by_pred_.size() ? by_pred_[pred] : kEmpty;
  }

  size_t NumAtoms() const { return membership_.size(); }

  // Declares the posting index on (pred, cols), built over the current rows
  // and maintained by AddAtom from then on; returns its id in indexes().
  // Declaring may move existing indexes: never while a reader holds one.
  uint32_t DeclareIndex(PredId pred, std::vector<uint32_t> cols) {
    return indexes_.Declare(pred, std::move(cols), AtomsOf(pred));
  }

  const IndexSet& indexes() const { return indexes_; }

  // Allocates a fresh null id (never reused).
  uint64_t NewNullId() { return next_null_++; }

  // Number of null ids allocated so far (= the next id to be handed out).
  uint64_t NumNulls() const { return next_null_; }

  // Restores the null counter when rebuilding an instance from a chase
  // checkpoint (chase/chase_engine.cc resume path), so fresh nulls in the
  // continued run are numbered exactly as in the uninterrupted one.
  void SetNextNull(uint64_t next_null) { next_null_ = next_null; }

  // Iterates all atoms (by predicate, insertion order within predicate).
  template <typename Fn>
  void ForEachAtom(Fn&& fn) const {
    for (const auto& atoms : by_pred_) {
      for (const GroundAtom& atom : atoms) fn(atom);
    }
  }

 private:
  const Schema* schema_;
  std::vector<std::vector<GroundAtom>> by_pred_;
  std::unordered_set<GroundAtom, GroundAtomHash> membership_;
  IndexSet indexes_;
  uint64_t next_null_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_INSTANCE_H_
