#include "chase/body_partition.h"

#include "chase/instance.h"
#include "logic/schema.h"
#include "logic/tgd.h"

#include <algorithm>

namespace chase {
namespace {

// Cost estimates saturate: a cross-product of a few large relations
// overflows uint64 long before it overflows the planner's patience, and a
// saturated estimate still splits maximally.
uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

struct Range {
  size_t begin;
  size_t end;

  size_t size() const { return end - begin; }
  bool empty() const { return end == begin; }
};

// The candidate-row range of body position `pos` for the (rule, delta_pos)
// task — the same window rule the serial enumeration hard-codes: the delta
// rows at the delta position, only previous-rounds rows before it (so each
// trigger is enumerated once, at its first delta position), the full
// round-start prefix after it.
Range CandidateRange(const Tgd& tgd, const RoundView& view, size_t delta_pos,
                     size_t pos) {
  const PredId pred = tgd.body()[pos].pred;
  if (pos == delta_pos) return {view.PrevOf(pred), view.CurOf(pred)};
  if (pos < delta_pos) return {0, view.PrevOf(pred)};
  return {0, view.CurOf(pred)};
}

// Estimated enumeration cost of one position-0 row: the product of the
// candidate counts of every inner position. 1 for a linear body.
uint64_t InnerCost(const Tgd& tgd, const RoundView& view, size_t delta_pos) {
  uint64_t cost = 1;
  for (size_t pos = 1; pos < tgd.body().size(); ++pos) {
    cost = SatMul(cost, CandidateRange(tgd, view, delta_pos, pos).size());
  }
  return cost;
}

}  // namespace

std::vector<BodyPartition> PlanBodyPartitions(const std::vector<Tgd>& tgds,
                                              const RoundView& view,
                                              unsigned threads) {
  const uint64_t num_threads = std::max(1u, threads);
  const bool split = threads > 1;
  // Pass 1: the round's total estimated cost, to size the grain — the same
  // few-fragments-per-worker discipline as FrontierChunkSize, but weighted
  // by estimated join cost instead of row count.
  uint64_t total = 0;
  for (const Tgd& tgd : tgds) {
    for (size_t delta_pos = 0; delta_pos < tgd.body().size(); ++delta_pos) {
      uint64_t cost = 1;
      for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
        cost = SatMul(cost, CandidateRange(tgd, view, delta_pos, pos).size());
      }
      total = SatAdd(total, cost);
    }
  }
  const uint64_t grain = std::max<uint64_t>(1, total / (4 * num_threads));

  std::vector<BodyPartition> parts;
  for (size_t rule = 0; rule < tgds.size(); ++rule) {
    const Tgd& tgd = tgds[rule];
    const size_t body_size = tgd.body().size();
    for (size_t delta_pos = 0; delta_pos < body_size; ++delta_pos) {
      bool empty = false;
      for (size_t pos = 0; pos < body_size; ++pos) {
        if (CandidateRange(tgd, view, delta_pos, pos).empty()) {
          empty = true;
          break;
        }
      }
      if (empty) continue;  // some position has no candidates: no triggers

      const Range r0 = CandidateRange(tgd, view, delta_pos, 0);
      const Range r1 = body_size > 1
                           ? CandidateRange(tgd, view, delta_pos, 1)
                           : Range{0, 0};
      const uint64_t inner = InnerCost(tgd, view, delta_pos);

      // A single position-0 row heavier than the grain: pin each row and
      // split the position-1 range under it. Self-limiting — at most
      // ~4·threads such rows fit in `total`, and the per-row fragment
      // count is capped at 4·threads besides.
      uint64_t sub = 0;
      if (split && inner > grain && body_size > 1 && r1.size() > 1) {
        sub = inner / grain + (inner % grain != 0 ? 1 : 0);
        sub = std::min<uint64_t>({sub, r1.size(), 4 * num_threads});
      }
      if (sub > 1) {
        const size_t step = (r1.size() + sub - 1) / sub;
        for (size_t row0 = r0.begin; row0 < r0.end; ++row0) {
          for (size_t b1 = r1.begin; b1 < r1.end; b1 += step) {
            parts.push_back({static_cast<uint32_t>(rule),
                             static_cast<uint32_t>(delta_pos), row0, row0 + 1,
                             b1, std::min(r1.end, b1 + step)});
          }
        }
      } else {
        const size_t rows_per =
            split ? static_cast<size_t>(std::max<uint64_t>(
                        1, grain / std::max<uint64_t>(1, inner)))
                  : r0.size();
        for (size_t b0 = r0.begin; b0 < r0.end; b0 += rows_per) {
          parts.push_back({static_cast<uint32_t>(rule),
                           static_cast<uint32_t>(delta_pos), b0,
                           std::min(r0.end, b0 + rows_per), r1.begin, r1.end});
        }
      }
    }
  }
  return parts;
}

void HomEnumerator::Reset(const Tgd* tgd, std::span<const uint32_t> body_ids,
                          const Instance* instance, const RoundView* view,
                          const BodyPartition& part) {
  const size_t n = tgd->body().size();
  windows_.resize(n);
  windows_[0] = {part.begin0, part.end0};
  for (size_t pos = 1; pos < n; ++pos) {
    const Range r = CandidateRange(*tgd, *view, part.delta_pos, pos);
    windows_[pos] = {r.begin, r.end};
  }
  if (n > 1) {
    // A join-split fragment after the first under its pinned row probes
    // that row again; the serial stream probes it once.
    if (part.begin1 != windows_[1].begin) ++repeated_root_probes_;
    windows_[1] = {part.begin1, part.end1};
  }
  cursor_.Reset(*instance, instance->indexes(), tgd->body(), body_ids,
                windows_, tgd->num_vars());
}

}  // namespace chase
