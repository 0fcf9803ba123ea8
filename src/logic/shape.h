// Shapes of atoms (Section 3 of the paper).
//
// For a tuple t̄ = (t1, ..., tn), unique(t̄) keeps the first occurrence of
// each term, and id(t̄) maps each ti to the (1-based) index of ti within
// unique(t̄). E.g. t̄ = (x, y, x, z, y) gives unique(t̄) = (x, y, z) and
// id(t̄) = (1, 2, 1, 3, 2). The shape of an atom R(t̄) is the pair
// (R, id(t̄)); the simplification of R(t̄) is the atom R_{id(t̄)}(unique(t̄)).
//
// id-tuples are exactly the restricted-growth strings over [1, n]:
// id[0] == 1 and id[i] <= max(id[0..i-1]) + 1. They are in bijection with
// the set partitions of the positions [1, n], so the number of shapes of an
// arity-n predicate is the Bell number B(n).

#ifndef CHASE_LOGIC_SHAPE_H_
#define CHASE_LOGIC_SHAPE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "logic/schema.h"

namespace chase {

using IdTuple = std::vector<uint8_t>;

// Computes id(t̄) for any term-like tuple.
template <typename T>
IdTuple IdOf(std::span<const T> tuple) {
  IdTuple id(tuple.size());
  uint8_t next = 1;
  for (size_t i = 0; i < tuple.size(); ++i) {
    uint8_t assigned = 0;
    for (size_t j = 0; j < i; ++j) {
      if (tuple[j] == tuple[i]) {
        assigned = id[j];
        break;
      }
    }
    id[i] = assigned != 0 ? assigned : next++;
  }
  return id;
}

// Computes unique(t̄).
template <typename T>
std::vector<T> UniqueOf(std::span<const T> tuple) {
  std::vector<T> unique;
  for (size_t i = 0; i < tuple.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i; ++j) {
      if (tuple[j] == tuple[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(tuple[i]);
  }
  return unique;
}

struct Shape {
  PredId pred = 0;
  IdTuple id;

  Shape() = default;
  Shape(PredId p, IdTuple i) : pred(p), id(std::move(i)) {}

  // Number of distinct blocks, i.e., the arity of the simplified predicate
  // R_{id}.
  uint32_t NumDistinct() const {
    uint8_t max_id = 0;
    for (uint8_t v : id) max_id = v > max_id ? v : max_id;
    return max_id;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.pred == b.pred && a.id == b.id;
  }
  friend bool operator<(const Shape& a, const Shape& b) {
    if (a.pred != b.pred) return a.pred < b.pred;
    return a.id < b.id;
  }
};

struct IdTupleHash {
  size_t operator()(const IdTuple& id) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint8_t v : id) h = (h ^ v) * 0x100000001b3ULL;
    return static_cast<size_t>(h);
  }
};

struct ShapeHash {
  size_t operator()(const Shape& shape) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ shape.pred;
    for (uint8_t v : shape.id) h = (h ^ v) * 0x100000001b3ULL;
    return static_cast<size_t>(h);
  }
};

using ShapeSet = std::unordered_set<Shape, ShapeHash>;

// The shape of a ground tuple of predicate `pred`.
Shape ShapeOfTuple(PredId pred, std::span<const uint32_t> tuple);

// "R_[1,2,1]" — used in diagnostics and as the interned name of the
// simplified predicate R_{id}.
std::string ShapeName(const Schema& schema, const Shape& shape);

// All id-tuples of length `arity` (all restricted-growth strings), i.e., all
// shapes of an arity-`arity` predicate. Ordered lexicographically, from the
// all-equal tuple (1, ..., 1) to the all-distinct tuple (1, 2, ..., n).
std::vector<IdTuple> EnumerateIdTuples(uint32_t arity);

// The Bell number B(n) = |EnumerateIdTuples(n)| without enumerating;
// saturates at uint64 max.
uint64_t BellNumber(uint32_t n);

// The coarsening relation on id-tuples of equal length: `a` is coarser than
// or equal to `b` iff every equality in `b` also holds in `a` (i.e., `a`
// merges at least the positions `b` merges). Used by the Apriori pruning in
// the in-database shape finder.
bool CoarserOrEqual(const IdTuple& a, const IdTuple& b);

// Canonical id-tuple obtained from `id` by merging the blocks containing
// positions i and j.
IdTuple MergeBlocks(const IdTuple& id, uint32_t i, uint32_t j);

}  // namespace chase

#endif  // CHASE_LOGIC_SHAPE_H_
