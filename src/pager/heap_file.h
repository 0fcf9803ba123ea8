// HeapFile: one relation's tuples stored in a chain of fixed-width pages.
//
// A heap page holds floor((kPageSize - header) / (arity * 4)) tuples, packed
// back-to-back after the header; the header's `count` is the number of
// tuples in the page and `next` chains to the following page. Appends go to
// the tail page; scans walk the chain through the buffer pool, which makes
// scan cost (pages touched, hits vs misses) directly observable.

#ifndef CHASE_PAGER_HEAP_FILE_H_
#define CHASE_PAGER_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "base/status.h"
#include "pager/buffer_pool.h"
#include "pager/page.h"

namespace chase {
namespace pager {

class HeapFile {
 public:
  // Creates an empty heap file with a fresh head page.
  [[nodiscard]]
  static StatusOr<HeapFile> Create(BufferPool* pool, uint32_t arity);

  // Adopts an existing chain (from the disk catalog).
  HeapFile(BufferPool* pool, uint32_t arity, PageId first_page,
           PageId last_page, uint64_t num_tuples)
      : pool_(pool),
        arity_(arity),
        first_page_(first_page),
        last_page_(last_page),
        num_tuples_(num_tuples) {}

  // Appends one tuple; `tuple.size()` must equal the arity.
  [[nodiscard]] Status Append(std::span<const uint32_t> tuple);

  // Calls `visit` for every tuple in chain order; stops early (and returns
  // OK) when `visit` returns false.
  [[nodiscard]] Status Scan(
      const std::function<bool(std::span<const uint32_t>)>& visit) const;

  // Visits `num_rows` tuples starting from `skip_rows` tuples after the
  // beginning of `start_page` (which must be a page of this chain); a
  // chain that ends first is an InternalError. Stops early (and returns
  // OK) when `visit` returns false.
  // With `start_page` = first_page() and `skip_rows` counted from the head,
  // this is a plain row-range scan; callers holding a page directory (see
  // CollectPageIds) jump straight to `skip_rows / TuplesPerPage(arity)`.
  //
  // Page headers are not covered by the page checksum, so every chain walk
  // (scans, CollectPageIds, Append's tail fetch) validates each header it
  // reads: a non-heap page, a `count` larger than TuplesPerPage(arity) or,
  // on a page with a successor, different from it, or a walk longer than
  // the file has pages (a `next` that loops) is an InternalError naming the
  // page.
  [[nodiscard]] Status ScanFrom(
      PageId start_page, uint64_t skip_rows, uint64_t num_rows,
      const std::function<bool(std::span<const uint32_t>)>& visit) const;

  // Appends the chain's page ids in order to `*out` — the page directory a
  // ranged scan seeks through. Appends only write to the tail page, and
  // every non-tail page is full, so row r lives in page
  // out[r / TuplesPerPage(arity)] at offset r % TuplesPerPage(arity).
  [[nodiscard]] Status CollectPageIds(std::vector<PageId>* out) const;

  uint32_t arity() const { return arity_; }
  PageId first_page() const { return first_page_; }
  PageId last_page() const { return last_page_; }
  uint64_t num_tuples() const { return num_tuples_; }

  // Tuples that fit in one page for a given arity.
  static uint32_t TuplesPerPage(uint32_t arity);

 private:
  // Validates the header of `page`, reached after `hops` earlier pages of
  // a chain walk (see ScanFrom).
  [[nodiscard]] Status CheckChainPage(PageId page, uint64_t hops,
                                      const PageHeader& header) const;

  BufferPool* pool_ = nullptr;
  uint32_t arity_ = 0;
  PageId first_page_ = kInvalidPageId;
  PageId last_page_ = kInvalidPageId;
  uint64_t num_tuples_ = 0;
};

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_HEAP_FILE_H_
