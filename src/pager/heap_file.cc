#include "pager/heap_file.h"

#include "base/status.h"
#include "pager/buffer_pool.h"
#include "pager/page.h"

#include <cassert>
#include <cstring>

namespace chase {
namespace pager {

uint32_t HeapFile::TuplesPerPage(uint32_t arity) {
  assert(arity > 0);
  return (kPageSize - kPageHeaderSize) / (arity * sizeof(uint32_t));
}

Status HeapFile::CheckChainPage(PageId page, uint64_t hops,
                                const PageHeader& header) const {
  // A chain visits each page at most once, so a walk longer than the file
  // has gone round a loop.
  if (hops >= pool_->disk().num_pages()) {
    return InternalError("heap chain loops: page " + std::to_string(page) +
                         " reached after " + std::to_string(hops) +
                         " pages in a file of " +
                         std::to_string(pool_->disk().num_pages()));
  }
  if (header.kind != static_cast<uint32_t>(PageKind::kHeap)) {
    return InternalError("heap chain reached a non-heap page " +
                         std::to_string(page));
  }
  // Appends fill only the tail page, so a page with a successor is full.
  const uint32_t capacity = TuplesPerPage(arity_);
  if (header.count > capacity ||
      (header.next != kInvalidPageId && header.count != capacity)) {
    return InternalError(
        "heap page " + std::to_string(page) + " claims " +
        std::to_string(header.count) + " tuples; " +
        (header.next != kInvalidPageId ? "a non-tail page holds exactly "
                                       : "at most ") +
        std::to_string(capacity));
  }
  return OkStatus();
}

StatusOr<HeapFile> HeapFile::Create(BufferPool* pool, uint32_t arity) {
  if (arity == 0) return InvalidArgumentError("heap file arity must be > 0");
  if (TuplesPerPage(arity) == 0) {
    return InvalidArgumentError("arity too large for page size");
  }
  CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool->Allocate());
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kHeap);
  WritePageHeader(&guard.MutablePage(), header);
  return HeapFile(pool, arity, guard.page_id(), guard.page_id(), 0);
}

Status HeapFile::Append(std::span<const uint32_t> tuple) {
  if (tuple.size() != arity_) {
    return InvalidArgumentError("tuple width does not match heap file arity");
  }
  const uint32_t capacity = TuplesPerPage(arity_);
  CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(last_page_));
  PageHeader header = ReadPageHeader(guard.page());
  CHASE_RETURN_IF_ERROR(CheckChainPage(last_page_, 0, header));
  if (header.count == capacity) {
    CHASE_ASSIGN_OR_RETURN(PageGuard fresh, pool_->Allocate());
    PageHeader fresh_header;
    fresh_header.kind = static_cast<uint32_t>(PageKind::kHeap);
    WritePageHeader(&fresh.MutablePage(), fresh_header);
    header.next = fresh.page_id();
    WritePageHeader(&guard.MutablePage(), header);
    last_page_ = fresh.page_id();
    guard = std::move(fresh);
    header = fresh_header;
  }
  const uint32_t offset =
      kPageHeaderSize + header.count * arity_ * sizeof(uint32_t);
  Page& page = guard.MutablePage();
  std::memcpy(page.bytes.data() + offset, tuple.data(),
              arity_ * sizeof(uint32_t));
  ++header.count;
  WritePageHeader(&page, header);
  ++num_tuples_;
  return OkStatus();
}

Status HeapFile::Scan(
    const std::function<bool(std::span<const uint32_t>)>& visit) const {
  return ScanFrom(first_page_, 0, num_tuples_, visit);
}

Status HeapFile::ScanFrom(
    PageId start_page, uint64_t skip_rows, uint64_t num_rows,
    const std::function<bool(std::span<const uint32_t>)>& visit) const {
  PageId current = start_page;
  for (uint64_t hops = 0; current != kInvalidPageId && num_rows > 0;
       ++hops) {
    CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    const Page& page = guard.page();
    const PageHeader header = ReadPageHeader(page);
    CHASE_RETURN_IF_ERROR(CheckChainPage(current, hops, header));
    const uint32_t* tuples = reinterpret_cast<const uint32_t*>(
        page.bytes.data() + kPageHeaderSize);
    uint32_t row = 0;
    if (skip_rows >= header.count) {
      skip_rows -= header.count;
    } else {
      row = static_cast<uint32_t>(skip_rows);
      skip_rows = 0;
      for (; row < header.count && num_rows > 0; ++row, --num_rows) {
        if (!visit({tuples + row * arity_, arity_})) return OkStatus();
      }
    }
    current = header.next;
  }
  if (num_rows > 0) {
    return InternalError("heap chain from page " + std::to_string(start_page) +
                         " ended " + std::to_string(num_rows) +
                         " tuples short of the requested range");
  }
  return OkStatus();
}

Status HeapFile::CollectPageIds(std::vector<PageId>* out) const {
  PageId current = first_page_;
  for (uint64_t hops = 0; current != kInvalidPageId; ++hops) {
    CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    const PageHeader header = ReadPageHeader(guard.page());
    CHASE_RETURN_IF_ERROR(CheckChainPage(current, hops, header));
    out->push_back(current);
    current = header.next;
  }
  return OkStatus();
}

}  // namespace pager
}  // namespace chase
