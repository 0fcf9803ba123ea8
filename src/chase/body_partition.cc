#include "chase/body_partition.h"

#include "chase/instance.h"
#include "logic/schema.h"
#include "logic/tgd.h"

namespace chase {

bool HomEnumerator::Reset(const Tgd* tgd, std::span<const uint32_t> body_ids,
                          const Instance* instance, const RoundView* view,
                          size_t delta_pos) {
  // The delta rows at the delta position, only previous-rounds rows before
  // it (so each trigger is enumerated once, at its first delta position),
  // the full round-start prefix after it.
  const size_t n = tgd->body().size();
  windows_.resize(n);
  bool empty = false;
  for (size_t pos = 0; pos < n; ++pos) {
    const PredId pred = tgd->body()[pos].pred;
    if (pos == delta_pos) {
      windows_[pos] = {view->PrevOf(pred), view->CurOf(pred)};
    } else if (pos < delta_pos) {
      windows_[pos] = {0, view->PrevOf(pred)};
    } else {
      windows_[pos] = {0, view->CurOf(pred)};
    }
    if (windows_[pos].begin == windows_[pos].end) empty = true;
  }
  // An empty outermost window ends the cursor before it probes any row.
  if (empty) windows_[0] = {0, 0};
  cursor_.Reset(*instance, instance->indexes(), tgd->body(), body_ids,
                windows_, tgd->num_vars());
  return !empty;
}

}  // namespace chase
