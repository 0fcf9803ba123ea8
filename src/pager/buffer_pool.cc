#include "pager/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <utility>

#include "base/hash.h"
#include "base/status.h"
#include "base/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pager/disk_manager.h"
#include "pager/page.h"

namespace chase {
namespace pager {
namespace {

// Mirrors of the per-shard hit/miss/duplicate-read stats in the metrics registry, so a
// `--metrics` dump sees pool traffic without polling stats(). Gated and
// cached: disabled runs pay one relaxed load, enabled runs one sharded
// relaxed fetch_add on a pointer resolved once per process.
void CountPoolHit() {
  if (!obs::MetricsRegistry::enabled()) return;
  static obs::Counter* const hits =
      obs::MetricsRegistry::Get().GetCounter("pager.pool_hits");
  hits->Add(1);
}

void CountPoolMiss() {
  if (!obs::MetricsRegistry::enabled()) return;
  static obs::Counter* const misses =
      obs::MetricsRegistry::Get().GetCounter("pager.pool_misses");
  misses->Add(1);
}

void CountDuplicateRead() {
  if (!obs::MetricsRegistry::enabled()) return;
  static obs::Counter* const duplicates =
      obs::MetricsRegistry::Get().GetCounter("pager.duplicate_reads");
  duplicates->Add(1);
}

}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    page_id_ = other.page_id_;
    frame_ = other.frame_;
  }
  return *this;
}

const Page& PageGuard::page() const {
  assert(valid());
  return pool_->shards_[pool_->ShardOf(page_id_)]->frames[frame_].page;
}

Page& PageGuard::MutablePage() {
  assert(valid());
  pool_->MarkDirty(page_id_, frame_);
  return pool_->shards_[pool_->ShardOf(page_id_)]->frames[frame_].page;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(page_id_, frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, uint32_t num_frames,
                       uint32_t num_shards)
    : disk_(disk), num_frames_(num_frames) {
  assert(num_frames >= 1);
  uint32_t shards =
      num_shards == 0
          ? std::min(kDefaultShards,
                     std::max(1u, num_frames / kMinFramesPerShard))
          : std::clamp(num_shards, 1u, num_frames);
  shards_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Even split; the first (num_frames % shards) shards take one extra.
    shard->frames.resize(num_frames / shards + (s < num_frames % shards));
    shards_.push_back(std::move(shard));
  }
}

size_t BufferPool::ShardOf(PageId page_id) const {
  // Heap chains hand out consecutive page ids, so a raw modulus would deal
  // one relation's pages round-robin — fine — but interleave relations
  // poorly; a Fibonacci mix decorrelates shard choice from allocation
  // order.
  return static_cast<size_t>(
      FibonacciMix(static_cast<uint64_t>(page_id) + 1) % shards_.size());
}

namespace {

// Pins are transient in scan workloads (one page per worker, released
// before the next fetch), so a shard with every frame pinned usually
// frees up within microseconds. Fetch/Allocate wait it out with a bounded
// yield-retry before surfacing kResourceExhausted, so concurrency briefly
// exceeding a shard's frame count (e.g. more scan workers than frames per
// shard) degrades to a short stall instead of a probabilistic hard
// failure; genuinely stuck shards (every frame pinned indefinitely) still
// error out.
constexpr int kPinWaitRetries = 256;

}  // namespace

template <typename CheckHit, typename Install>
StatusOr<PageGuard> BufferPool::AcquireAndInstall(Shard& shard,
                                                  CheckHit&& check_hit,
                                                  Install&& install) {
  for (int attempt = 0;; ++attempt) {
    {
      MutexLock lock(shard.mu);
      if (std::optional<PageGuard> hit = check_hit()) {
        return std::move(*hit);
      }
      StatusOr<uint32_t> slot = AcquireFrame(&shard);
      if (slot.ok()) return install(*slot);
      if (slot.status().code() != StatusCode::kResourceExhausted ||
          attempt >= kPinWaitRetries) {
        return slot.status();
      }
    }
    std::this_thread::yield();
  }
}

StatusOr<PageGuard> BufferPool::Fetch(PageId page_id) {
  Shard& shard = *shards_[ShardOf(page_id)];
  {
    MutexLock lock(shard.mu);
    auto it = shard.page_table.find(page_id);
    if (it != shard.page_table.end()) {
      Frame& frame = shard.frames[it->second];
      ++frame.pin_count;
      frame.referenced = true;
      ++shard.stats.hits;
      CountPoolHit();
      return PageGuard(this, page_id, it->second);
    }
    // Counted here, exactly once per logical fetch — if a peer installs
    // the page while we stage the read below, that is still this fetch's
    // miss, not an extra hit.
    ++shard.stats.misses;
  }
  CountPoolMiss();
  // Miss: read outside the latch, so concurrent faults on different pages
  // of one shard overlap their I/O instead of serializing behind the latch.
  obs::TraceSpan fault_span("pager", "fault", "page",
                            static_cast<int64_t>(page_id));
  Page staged;
  CHASE_RETURN_IF_ERROR(disk_->ReadPage(page_id, &staged));
  // Both callbacks run with shard.mu held by AcquireAndInstall; the
  // analysis cannot follow the capability through the indirect call, hence
  // the per-lambda opt-outs.
  return AcquireAndInstall(
      shard,
      [&]() NO_THREAD_SAFETY_ANALYSIS -> std::optional<PageGuard> {
        auto it = shard.page_table.find(page_id);
        if (it == shard.page_table.end()) return std::nullopt;
        // A peer fetch won the race; the staged read is
        // wasted, the resident frame is the one to pin.
        ++shard.stats.duplicate_reads;
        CountDuplicateRead();
        Frame& frame = shard.frames[it->second];
        ++frame.pin_count;
        frame.referenced = true;
        return PageGuard(this, page_id, it->second);
      },
      [&](uint32_t slot) NO_THREAD_SAFETY_ANALYSIS -> StatusOr<PageGuard> {
        Frame& frame = shard.frames[slot];
        frame.page = staged;
        frame.page_id = page_id;
        frame.pin_count = 1;
        frame.dirty = false;
        frame.referenced = true;
        shard.page_table[page_id] = slot;
        return PageGuard(this, page_id, slot);
      });
}

StatusOr<PageGuard> BufferPool::Allocate() {
  // The disk allocation must come first: the page id decides the shard.
  // If the shard then stays pin-exhausted past the retry budget, the
  // already-extended file keeps one zeroed page that is never linked into
  // a chain — harmless (unreachable, verifies as unsealed) and only
  // reachable through a failure path that aborts the caller's operation
  // anyway.
  CHASE_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  Shard& shard = *shards_[ShardOf(page_id)];
  // The install callback runs with shard.mu held by AcquireAndInstall (see
  // the note in Fetch).
  return AcquireAndInstall(
      shard, [] { return std::optional<PageGuard>(); },
      [&](uint32_t slot) NO_THREAD_SAFETY_ANALYSIS -> StatusOr<PageGuard> {
        Frame& frame = shard.frames[slot];
        frame.page.Zero();
        // Stamp a default header so the page verifies even if the caller
        // never writes one before the frame is evicted.
        WritePageHeader(&frame.page, PageHeader{});
        frame.page_id = page_id;
        frame.pin_count = 1;
        frame.dirty = true;
        frame.referenced = true;
        shard.page_table[page_id] = slot;
        return PageGuard(this, page_id, slot);
      });
}

Status BufferPool::Flush() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (Frame& frame : shard->frames) {
      if (frame.page_id != kInvalidPageId && frame.dirty) {
        CHASE_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, &frame.page));
        frame.dirty = false;
        ++shard->stats.dirty_writebacks;
      }
    }
  }
  return disk_->Sync();
}

uint32_t BufferPool::pinned_frames() const {
  uint32_t pinned = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const Frame& frame : shard->frames) {
      if (frame.pin_count > 0) ++pinned;
    }
  }
  return pinned;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total.MergeFrom(shard->stats);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->stats.Reset();
  }
}

StatusOr<uint32_t> BufferPool::AcquireFrame(Shard* shard) {
  // Free frame first.
  for (uint32_t i = 0; i < shard->frames.size(); ++i) {
    if (shard->frames[i].page_id == kInvalidPageId) return i;
  }
  // Clock sweep: two full passes guarantee a victim is found if any frame is
  // unpinned (the first pass may only clear reference bits).
  const uint32_t n = static_cast<uint32_t>(shard->frames.size());
  for (uint32_t step = 0; step < 2 * n; ++step) {
    uint32_t slot = shard->clock_hand;
    shard->clock_hand = (shard->clock_hand + 1) % n;
    Frame& frame = shard->frames[slot];
    if (frame.pin_count > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) {
      CHASE_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, &frame.page));
      ++shard->stats.dirty_writebacks;
    }
    shard->page_table.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    frame.dirty = false;
    ++shard->stats.evictions;
    return slot;
  }
  return ResourceExhaustedError(
      "all frames of the page's buffer-pool shard are pinned");
}

void BufferPool::Unpin(PageId page_id, uint32_t frame) {
  Shard& shard = *shards_[ShardOf(page_id)];
  MutexLock lock(shard.mu);
  assert(shard.frames[frame].pin_count > 0);
  --shard.frames[frame].pin_count;
}

void BufferPool::MarkDirty(PageId page_id, uint32_t frame) {
  Shard& shard = *shards_[ShardOf(page_id)];
  MutexLock lock(shard.mu);
  shard.frames[frame].dirty = true;
}

}  // namespace pager
}  // namespace chase
