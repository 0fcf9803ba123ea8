#include "pager/disk_shape_source.h"

#include <algorithm>

#include "base/status.h"
#include "base/sync.h"
#include "logic/schema.h"
#include "pager/buffer_pool.h"
#include "pager/disk_manager.h"
#include "pager/heap_file.h"
#include "pager/page.h"
#include "storage/shape_source.h"

namespace chase {
namespace pager {

std::vector<PredId> DiskShapeSource::NonEmptyRelations() const {
  ++stats_.catalog_queries;
  return db_->NonEmptyPredicates();
}

StatusOr<const std::vector<PageId>*> DiskShapeSource::PageDirectory(
    PredId pred) const {
  MutexLock lock(mu_);
  auto it = directories_.find(pred);
  if (it != directories_.end()) return &it->second;
  std::vector<PageId> pages;
  CHASE_RETURN_IF_ERROR(db_->relation(pred).CollectPageIds(&pages));
  return &directories_.emplace(pred, std::move(pages)).first->second;
}

Status DiskShapeSource::ScanRange(PredId pred, uint64_t first_row,
                                  uint64_t num_rows,
                                  const storage::TupleVisitor& visit) const {
  const uint64_t rows = db_->NumTuples(pred);
  const uint64_t begin = std::min<uint64_t>(first_row, rows);
  const uint64_t last = std::min<uint64_t>(rows, begin + num_rows);
  if (begin >= last) return OkStatus();
  const HeapFile& relation = db_->relation(pred);
  if (begin == 0) {
    // Full-prefix scans (the serial scanner and every EXISTS probe) walk
    // straight from the chain head — no directory needed, and early exits
    // stay cheap.
    return relation.ScanFrom(relation.first_page(), 0, last, visit);
  }
  CHASE_ASSIGN_OR_RETURN(const std::vector<PageId>* directory,
                         PageDirectory(pred));
  const uint32_t per_page = HeapFile::TuplesPerPage(relation.arity());
  if ((last - 1) / per_page >= directory->size()) {
    return InternalError("heap page directory shorter than tuple count");
  }
  return relation.ScanFrom((*directory)[begin / per_page], begin % per_page,
                           last - begin, visit);
}

storage::IoCounters DiskShapeSource::Io() const {
  const IoStats& io = db_->disk().stats();
  const BufferPoolStats pool = db_->buffer_pool().stats();
  storage::IoCounters out;
  out.pages_read = io.pages_read.load(std::memory_order_relaxed);
  out.pages_written = io.pages_written.load(std::memory_order_relaxed);
  out.pool_hits = pool.hits;
  out.pool_misses = pool.misses;
  out.duplicate_reads = pool.duplicate_reads;
  return out;
}

}  // namespace pager
}  // namespace chase
