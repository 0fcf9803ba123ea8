#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/data_generator.h"
#include "pager/buffer_pool.h"
#include "pager/disk_database.h"
#include "pager/disk_manager.h"
#include "pager/disk_shape_source.h"
#include "pager/heap_file.h"
#include "pager/page.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace pager {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

GeneratedData MakeData(uint32_t preds, uint64_t rsize, uint64_t seed) {
  DataGenParams params;
  params.preds = preds;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 100;
  params.rsize = rsize;
  params.seed = seed;
  auto data = GenerateData(params);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).value();
}

// shape(D) of the row store, by the serial in-memory scan: the oracle the
// disk plans are checked against.
std::vector<Shape> MemoryShapes(const Database& db) {
  storage::Catalog catalog(&db);
  storage::MemoryShapeSource source(&catalog);
  return storage::FindShapes(source).value();
}

// shape(D) of a disk store through a fresh source, serially.
StatusOr<std::vector<Shape>> DiskShapes(const DiskDatabase& db,
                                        storage::ShapeFinderMode mode) {
  DiskShapeSource source(&db);
  return storage::FindShapes(source, {mode});
}

// ---------------------------------------------------------------------------
// Page

TEST(PageTest, SealThenVerify) {
  Page page;
  page.Zero();
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kHeap);
  WritePageHeader(&page, header);
  page.WriteU32(kPageHeaderSize, 0xdeadbeef);
  SealPage(&page);
  EXPECT_TRUE(VerifyPage(page));
}

TEST(PageTest, CorruptedBodyFailsVerify) {
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  page.WriteU32(kPageHeaderSize, 1);
  SealPage(&page);
  page.WriteU32(kPageHeaderSize, 2);  // corrupt after sealing
  EXPECT_FALSE(VerifyPage(page));
}

TEST(PageTest, BadMagicFailsVerify) {
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  SealPage(&page);
  page.WriteU32(0, 0);  // clobber magic
  EXPECT_FALSE(VerifyPage(page));
}

TEST(PageTest, HeaderRoundTrip) {
  Page page;
  page.Zero();
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kCatalog);
  header.next = 17;
  header.count = 42;
  WritePageHeader(&page, header);
  PageHeader read = ReadPageHeader(page);
  EXPECT_EQ(read.kind, header.kind);
  EXPECT_EQ(read.next, header.next);
  EXPECT_EQ(read.count, header.count);
}

// ---------------------------------------------------------------------------
// DiskManager

TEST(DiskManagerTest, CreateStartsWithCatalogRoot) {
  auto manager = DiskManager::Create(TempPath("dm_create.db"));
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_EQ(manager->num_pages(), 1u);
  Page page;
  ASSERT_TRUE(manager->ReadPage(0, &page).ok());
  EXPECT_EQ(ReadPageHeader(page).kind,
            static_cast<uint32_t>(PageKind::kCatalog));
}

TEST(DiskManagerTest, WriteReadRoundTrip) {
  auto manager = DiskManager::Create(TempPath("dm_rw.db"));
  ASSERT_TRUE(manager.ok());
  auto id = manager->AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  page.WriteU64(kPageHeaderSize, 0x1122334455667788ULL);
  ASSERT_TRUE(manager->WritePage(*id, &page).ok());

  Page read;
  ASSERT_TRUE(manager->ReadPage(*id, &read).ok());
  EXPECT_EQ(read.ReadU64(kPageHeaderSize), 0x1122334455667788ULL);
}

TEST(DiskManagerTest, ReadUnallocatedPageIsOutOfRange) {
  auto manager = DiskManager::Create(TempPath("dm_oor.db"));
  ASSERT_TRUE(manager.ok());
  Page page;
  EXPECT_EQ(manager->ReadPage(99, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manager->WritePage(99, &page).code(), StatusCode::kOutOfRange);
}

TEST(DiskManagerTest, OpenMissingFileIsNotFound) {
  auto manager = DiskManager::Open(TempPath("does_not_exist.db"));
  EXPECT_EQ(manager.status().code(), StatusCode::kNotFound);
}

TEST(DiskManagerTest, OpenMisalignedFileIsFailedPrecondition) {
  std::string path = TempPath("dm_misaligned.db");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a page file", f);
  std::fclose(f);
  auto manager = DiskManager::Open(path);
  EXPECT_EQ(manager.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  std::string path = TempPath("dm_reopen.db");
  PageId id = kInvalidPageId;
  {
    auto manager = DiskManager::Create(path);
    ASSERT_TRUE(manager.ok());
    auto allocated = manager->AllocatePage();
    ASSERT_TRUE(allocated.ok());
    id = *allocated;
    Page page;
    page.Zero();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 7);
    ASSERT_TRUE(manager->WritePage(id, &page).ok());
    ASSERT_TRUE(manager->Sync().ok());
  }
  auto reopened = DiskManager::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_pages(), 2u);
  Page page;
  ASSERT_TRUE(reopened->ReadPage(id, &page).ok());
  EXPECT_EQ(page.ReadU32(kPageHeaderSize), 7u);
}

TEST(DiskManagerTest, CorruptedPageDetectedOnRead) {
  std::string path = TempPath("dm_corrupt.db");
  PageId id = kInvalidPageId;
  {
    auto manager = DiskManager::Create(path);
    ASSERT_TRUE(manager.ok());
    auto allocated = manager->AllocatePage();
    ASSERT_TRUE(allocated.ok());
    id = *allocated;
    Page page;
    page.Zero();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 7);
    ASSERT_TRUE(manager->WritePage(id, &page).ok());
  }
  {
    // Flip a byte in the page body directly in the file.
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(id) * kPageSize + kPageHeaderSize + 100,
               SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  auto manager = DiskManager::Open(path);
  ASSERT_TRUE(manager.ok());
  Page page;
  EXPECT_EQ(manager->ReadPage(id, &page).code(), StatusCode::kInternal);
}

TEST(DiskManagerTest, ReadFaultInjection) {
  auto manager = DiskManager::Create(TempPath("dm_rfault.db"));
  ASSERT_TRUE(manager.ok());
  manager->set_read_fault([](PageId id) {
    return id == 0 ? InternalError("injected read fault") : OkStatus();
  });
  Page page;
  Status status = manager->ReadPage(0, &page);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "injected read fault");
  manager->set_read_fault(nullptr);
  EXPECT_TRUE(manager->ReadPage(0, &page).ok());
}

TEST(DiskManagerTest, WriteFaultInjection) {
  auto manager = DiskManager::Create(TempPath("dm_wfault.db"));
  ASSERT_TRUE(manager.ok());
  int writes = 0;
  manager->set_write_fault([&](PageId) {
    return ++writes > 1 ? InternalError("disk full") : OkStatus();
  });
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  EXPECT_TRUE(manager->WritePage(0, &page).ok());
  EXPECT_EQ(manager->WritePage(0, &page).code(), StatusCode::kInternal);
}

TEST(DiskManagerTest, StatsCountIo) {
  auto manager = DiskManager::Create(TempPath("dm_stats.db"));
  ASSERT_TRUE(manager.ok());
  manager->stats().Reset();
  auto id = manager->AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  ASSERT_TRUE(manager->WritePage(*id, &page).ok());
  ASSERT_TRUE(manager->ReadPage(*id, &page).ok());
  ASSERT_TRUE(manager->Sync().ok());
  EXPECT_EQ(manager->stats().pages_allocated, 1u);
  EXPECT_EQ(manager->stats().pages_written, 1u);
  EXPECT_EQ(manager->stats().pages_read, 1u);
  EXPECT_EQ(manager->stats().syncs, 1u);
}

// ---------------------------------------------------------------------------
// BufferPool

TEST(BufferPoolTest, FetchHitsAfterMiss) {
  auto manager = DiskManager::Create(TempPath("bp_hits.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  {
    auto guard = pool.Fetch(0);
    ASSERT_TRUE(guard.ok());
  }
  {
    auto guard = pool.Fetch(0);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsUnpinnedPages) {
  auto manager = DiskManager::Create(TempPath("bp_evict.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 2);
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    pages.push_back(guard->page_id());
  }
  // 4 pages passed through a 2-frame pool: at least 2 evictions.
  EXPECT_GE(pool.stats().evictions, 2u);
  // All pages still readable (dirty frames were written back).
  for (PageId id : pages) {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok()) << guard.status();
  }
}

TEST(BufferPoolTest, AllFramesPinnedIsResourceExhausted) {
  auto manager = DiskManager::Create(TempPath("bp_pinned.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 2);
  auto g1 = pool.Allocate();
  ASSERT_TRUE(g1.ok());
  auto g2 = pool.Allocate();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(pool.pinned_frames(), 2u);
  auto g3 = pool.Allocate();
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, GuardReleaseUnpins) {
  auto manager = DiskManager::Create(TempPath("bp_release.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 1);
  auto g1 = pool.Fetch(0);
  ASSERT_TRUE(g1.ok());
  g1->Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  auto g2 = pool.Allocate();  // needs the single frame back
  EXPECT_TRUE(g2.ok());
}

TEST(BufferPoolTest, DirtyPagesReachDiskOnFlush) {
  std::string path = TempPath("bp_flush.db");
  PageId id = kInvalidPageId;
  {
    auto manager = DiskManager::Create(path);
    ASSERT_TRUE(manager.ok());
    BufferPool pool(&manager.value(), 4);
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    id = guard->page_id();
    Page& page = guard->MutablePage();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 321);
    guard->Release();
    ASSERT_TRUE(pool.Flush().ok());
  }
  auto reopened = DiskManager::Open(path);
  ASSERT_TRUE(reopened.ok());
  Page page;
  ASSERT_TRUE(reopened->ReadPage(id, &page).ok());
  EXPECT_EQ(page.ReadU32(kPageHeaderSize), 321u);
}

// ---------------------------------------------------------------------------
// BufferPool sharding

TEST(BufferPoolShardingTest, SmallPoolsStaySingleSharded) {
  auto manager = DiskManager::Create(TempPath("bps_small.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  // Per-shard capacity semantics (pinning, exhaustion) must match the
  // pre-sharding pool when there are too few frames to split.
  EXPECT_EQ(pool.num_shards(), 1u);
}

TEST(BufferPoolShardingTest, LargePoolsAutoShardAndClampExplicitCounts) {
  auto manager = DiskManager::Create(TempPath("bps_auto.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool auto_pool(&manager.value(), 64);
  EXPECT_EQ(auto_pool.num_shards(), BufferPool::kDefaultShards);
  BufferPool explicit_pool(&manager.value(), 16, 4);
  EXPECT_EQ(explicit_pool.num_shards(), 4u);
  // Never more shards than frames.
  BufferPool clamped(&manager.value(), 2, 64);
  EXPECT_EQ(clamped.num_shards(), 2u);
  EXPECT_EQ(clamped.num_frames(), 2u);
}

TEST(BufferPoolShardingTest, ShardedPoolRoundTripsPagesThroughEviction) {
  auto manager = DiskManager::Create(TempPath("bps_roundtrip.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 8, 4);
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 64; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok()) << guard.status();
    Page& page = guard->MutablePage();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 1000 + i);
    pages.push_back(guard->page_id());
  }
  // 64 pages through 8 frames: evictions with dirty write-back happened.
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
  for (uint32_t i = 0; i < pages.size(); ++i) {
    auto guard = pool.Fetch(pages[i]);
    ASSERT_TRUE(guard.ok()) << guard.status();
    EXPECT_EQ(guard->page().ReadU32(kPageHeaderSize), 1000 + i);
  }
}

// The pool-stress suite: more worker threads than frames hammering Fetch
// while reader threads poll the aggregated pool and disk counters (the
// metering path DiskShapeSource::Io takes mid-scan). Run under TSan in CI.
TEST(BufferPoolShardingTest, StressMoreThreadsThanFrames) {
  auto manager = DiskManager::Create(TempPath("bps_stress.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4, 2);

  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 32; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    Page& page = guard->MutablePage();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 7000 + i);
    pages.push_back(guard->page_id());
  }

  constexpr unsigned kWorkers = 8;  // twice the frame count
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int iter = 0; iter < 400; ++iter) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t i = static_cast<uint32_t>((state >> 33) %
                                                 pages.size());
        auto guard = pool.Fetch(pages[i]);
        if (!guard.ok()) {
          // With more pins in flight than frames, per-shard exhaustion is
          // legitimate back-pressure; anything else is a bug.
          if (guard.status().code() != StatusCode::kResourceExhausted) {
            ++failures;
            return;
          }
          continue;
        }
        if (guard->page().ReadU32(kPageHeaderSize) != 7000 + i) {
          ++failures;
          return;
        }
        ++verified;
      }
    });
  }
  // Concurrent metering readers: aggregate counters while scans mutate the
  // per-shard stats under their latches.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const BufferPoolStats stats = pool.stats();
        sink += stats.hits + stats.misses + stats.evictions;
        sink += pool.disk().stats().pages_read.load(
            std::memory_order_relaxed);
        sink += pool.pinned_frames();
      }
      EXPECT_GE(sink, 0u);
    });
  }
  for (std::thread& worker : threads) worker.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(verified.load(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_GE(stats.hits + stats.misses, verified.load());
}

// ---------------------------------------------------------------------------
// HeapFile

TEST(HeapFileTest, TuplesPerPageLeavesRoomForHeader) {
  EXPECT_EQ(HeapFile::TuplesPerPage(1), (kPageSize - kPageHeaderSize) / 4);
  EXPECT_EQ(HeapFile::TuplesPerPage(5), (kPageSize - kPageHeaderSize) / 20);
  EXPECT_GT(HeapFile::TuplesPerPage(11), 0u);
}

TEST(HeapFileTest, ZeroArityRejected) {
  auto manager = DiskManager::Create(TempPath("hf_zero.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 0);
  EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
}

TEST(HeapFileTest, AppendScanRoundTripAcrossPages) {
  auto manager = DiskManager::Create(TempPath("hf_roundtrip.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 3);
  ASSERT_TRUE(heap.ok());

  // Enough tuples to span several pages.
  const uint32_t n = 3 * HeapFile::TuplesPerPage(3) + 17;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint32_t> tuple = {i, i * 2, i * 3};
    ASSERT_TRUE(heap->Append(tuple).ok());
  }
  EXPECT_EQ(heap->num_tuples(), n);

  uint32_t seen = 0;
  ASSERT_TRUE(heap->Scan([&](std::span<const uint32_t> tuple) {
                    EXPECT_EQ(tuple[0], seen);
                    EXPECT_EQ(tuple[1], seen * 2);
                    EXPECT_EQ(tuple[2], seen * 3);
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, n);
}

TEST(HeapFileTest, ScanStopsEarly) {
  auto manager = DiskManager::Create(TempPath("hf_early.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 1);
  ASSERT_TRUE(heap.ok());
  for (uint32_t i = 0; i < 100; ++i) {
    std::vector<uint32_t> tuple = {i};
    ASSERT_TRUE(heap->Append(tuple).ok());
  }
  uint32_t seen = 0;
  ASSERT_TRUE(heap->Scan([&](std::span<const uint32_t>) {
                    return ++seen < 5;
                  })
                  .ok());
  EXPECT_EQ(seen, 5u);
}

TEST(HeapFileTest, WrongWidthRejected) {
  auto manager = DiskManager::Create(TempPath("hf_width.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 2);
  ASSERT_TRUE(heap.ok());
  std::vector<uint32_t> tuple = {1, 2, 3};
  EXPECT_EQ(heap->Append(tuple).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// DiskDatabase

bool SameContents(const Database& a, const Database& b) {
  if (a.schema().NumPredicates() != b.schema().NumPredicates()) return false;
  for (PredId pred = 0; pred < a.schema().NumPredicates(); ++pred) {
    auto ta = a.Tuples(pred);
    auto tb = b.Tuples(pred);
    if (!std::equal(ta.begin(), ta.end(), tb.begin(), tb.end())) return false;
  }
  return true;
}

TEST(DiskDatabaseTest, CreateOpenToDatabaseRoundTrip) {
  GeneratedData data = MakeData(8, 200, 42);
  std::string path = TempPath("dd_roundtrip.db");
  {
    auto disk_db = DiskDatabase::Create(path, *data.database);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    EXPECT_EQ((*disk_db)->TotalTuples(), data.database->TotalFacts());
  }
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->schema().NumPredicates(),
            data.schema->NumPredicates());
  auto loaded = (*reopened)->ToDatabase();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(SameContents(*data.database, *loaded));
}

TEST(DiskDatabaseTest, NamedConstantsSurviveReopen) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  uint32_t alice = db.InternConstant("alice");
  uint32_t bob = db.InternConstant("bob");
  std::vector<uint32_t> tuple = {alice, bob};
  ASSERT_TRUE(db.AddFact(*pred, tuple).ok());

  std::string path = TempPath("dd_names.db");
  ASSERT_TRUE(DiskDatabase::Create(path, db).ok());
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->ConstantName(alice), "alice");
  EXPECT_EQ((*reopened)->ConstantName(bob), "bob");
}

TEST(DiskDatabaseTest, NonEmptyPredicatesMatchesInMemory) {
  GeneratedData data = MakeData(6, 10, 7);
  // Add one empty predicate.
  auto empty = data.schema->AddPredicate("always_empty", 2);
  ASSERT_TRUE(empty.ok());
  std::string path = TempPath("dd_nonempty.db");
  auto disk_db = DiskDatabase::Create(path, *data.database);
  ASSERT_TRUE(disk_db.ok());
  EXPECT_EQ((*disk_db)->NonEmptyPredicates(),
            data.database->NonEmptyPredicates());
}

TEST(DiskDatabaseTest, AppendThenSaveCatalogPersists) {
  GeneratedData data = MakeData(3, 5, 11);
  std::string path = TempPath("dd_append.db");
  uint64_t before = 0;
  {
    auto disk_db = DiskDatabase::Create(path, *data.database);
    ASSERT_TRUE(disk_db.ok());
    before = (*disk_db)->TotalTuples();
    const uint32_t arity = (*disk_db)->schema().Arity(0);
    std::vector<uint32_t> tuple(arity, 9);
    ASSERT_TRUE((*disk_db)->Append(0, tuple).ok());
    ASSERT_TRUE((*disk_db)->SaveCatalog().ok());
  }
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->TotalTuples(), before + 1);
}

TEST(DiskDatabaseTest, LargeCatalogSpansMultiplePages) {
  // Enough predicates with long names that the serialized catalog exceeds
  // one page.
  Schema schema;
  Database db(&schema);
  const int preds = 600;
  for (int i = 0; i < preds; ++i) {
    std::string name = "very_long_predicate_name_for_catalog_overflow_" +
                       std::to_string(i);
    auto pred = schema.AddPredicate(name, 2);
    ASSERT_TRUE(pred.ok());
    std::vector<uint32_t> tuple = {static_cast<uint32_t>(i),
                                   static_cast<uint32_t>(i + 1)};
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  }
  std::string path = TempPath("dd_bigcat.db");
  ASSERT_TRUE(DiskDatabase::Create(path, db).ok());
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->schema().NumPredicates(), schema.NumPredicates());
  EXPECT_EQ((*reopened)->TotalTuples(), static_cast<uint64_t>(preds));
}

TEST(DiskDatabaseTest, ScanReadFaultPropagates) {
  GeneratedData data = MakeData(2, 2000, 13);
  std::string path = TempPath("dd_fault.db");
  auto disk_db = DiskDatabase::Create(path, *data.database, /*num_frames=*/2);
  ASSERT_TRUE(disk_db.ok());
  (*disk_db)->disk().set_read_fault(
      [](PageId) { return InternalError("injected"); });
  PredId pred = (*disk_db)->NonEmptyPredicates().front();
  Status status =
      (*disk_db)->Scan(pred, [](std::span<const uint32_t>) { return true; });
  // The relation is large and the pool tiny, so the scan must hit the disk
  // and observe the fault.
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Disk shape finders agree with the in-memory implementations.

class DiskShapeFinderTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DiskShapeFinderTest, AgreesWithRowStoreFinders) {
  GeneratedData data = MakeData(5, 60, GetParam());
  std::string path = TempPath("dsf_" + std::to_string(GetParam()) + ".db");
  auto disk_db = DiskDatabase::Create(path, *data.database, /*num_frames=*/8);
  ASSERT_TRUE(disk_db.ok());

  const std::vector<Shape> expected = MemoryShapes(*data.database);

  auto scan = DiskShapes(**disk_db, storage::ShapeFinderMode::kScan);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(*scan, expected);

  auto exists = DiskShapes(**disk_db, storage::ShapeFinderMode::kExists);
  ASSERT_TRUE(exists.ok()) << exists.status();
  EXPECT_EQ(*exists, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskShapeFinderTest,
                         testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

// Measures page reads of both finders on a relation built by `fill`.
std::pair<uint64_t, uint64_t> MeasureFinderReads(const Database& db,
                                                 const std::string& path) {
  auto disk_db = DiskDatabase::Create(path, db, /*num_frames=*/4);
  EXPECT_TRUE(disk_db.ok());

  (*disk_db)->disk().stats().Reset();
  auto scan = DiskShapes(**disk_db, storage::ShapeFinderMode::kScan);
  EXPECT_TRUE(scan.ok());
  uint64_t scan_reads = (*disk_db)->disk().stats().pages_read;

  (*disk_db)->disk().stats().Reset();
  auto exists = DiskShapes(**disk_db, storage::ShapeFinderMode::kExists);
  EXPECT_TRUE(exists.ok());
  uint64_t exists_reads = (*disk_db)->disk().stats().pages_read;

  EXPECT_EQ(*scan, *exists);
  return {scan_reads, exists_reads};
}

TEST(DiskShapeFinderTest, ExistsModeWinsWhenAllShapesAppearEarly) {
  // Both shapes of the arity-2 relation occur within the first page, so
  // every exists query (relaxed and full) early-exits there, while the scan
  // mode must read the whole heap chain.
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  db.EnsureAnonymousDomain(10000);
  for (uint32_t i = 0; i < 5000; ++i) {
    std::vector<uint32_t> tuple =
        i % 2 == 0 ? std::vector<uint32_t>{i, i}          // shape (1,1)
                   : std::vector<uint32_t>{i, i + 1};      // shape (1,2)
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  }
  auto [scan_reads, exists_reads] =
      MeasureFinderReads(db, TempPath("dsf_early.db"));
  EXPECT_LT(exists_reads, scan_reads);
}

TEST(DiskShapeFinderTest, ExistsModeLosesWhenQueriesComeUpEmpty) {
  // Every tuple has shape (1,1,2): the queries for absent shapes (and the
  // failing relaxed queries that would prune them) must scan the entire
  // relation once each, so exists mode reads more pages than one scan. This
  // is the regime where the paper prefers the in-memory implementation.
  Schema schema;
  auto pred = schema.AddPredicate("r", 3);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  db.EnsureAnonymousDomain(10000);
  for (uint32_t i = 0; i < 5000; ++i) {
    std::vector<uint32_t> tuple = {i, i, i + 1};
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  }
  auto [scan_reads, exists_reads] =
      MeasureFinderReads(db, TempPath("dsf_empty.db"));
  EXPECT_GT(exists_reads, scan_reads);
}

// ---------------------------------------------------------------------------
// Disk database corruption. Page headers sit outside the page checksum, so
// every header field a reader trusts is checked on its own.

// A closed two-relation database file whose heap chains span three pages
// each: r/2 (2500 tuples, 1021 per page) and s/3 (1500 tuples, 680 per
// page), with several shapes per relation so the exists plan probes past
// the first page.
struct CorruptionFixture {
  std::string path;
  std::vector<PageId> r_pages;  // heap chain of r, in order
  std::vector<PageId> s_pages;  // heap chain of s, in order
  PageId num_pages = 0;
};

CorruptionFixture MakeCorruptionFixture(const std::string& name) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  const PredId s = schema.AddPredicate("s", 3).value();
  Database db(&schema);
  db.EnsureAnonymousDomain(10000);
  for (uint32_t i = 0; i < 2500; ++i) {
    const std::vector<uint32_t> tuple = {i, i % 3 == 0 ? i : i + 1};
    EXPECT_TRUE(db.AddFact(r, tuple).ok());
  }
  for (uint32_t i = 0; i < 1500; ++i) {
    const std::vector<uint32_t> tuple = {i, i % 2 == 0 ? i : i + 1,
                                         i % 5 == 0 ? i : i + 2};
    EXPECT_TRUE(db.AddFact(s, tuple).ok());
  }
  CorruptionFixture fixture;
  fixture.path = TempPath(name);
  auto disk_db = DiskDatabase::Create(fixture.path, db);
  EXPECT_TRUE(disk_db.ok()) << disk_db.status();
  EXPECT_TRUE((*disk_db)->relation(r).CollectPageIds(&fixture.r_pages).ok());
  EXPECT_TRUE((*disk_db)->relation(s).CollectPageIds(&fixture.s_pages).ok());
  EXPECT_EQ(fixture.r_pages.size(), 3u);
  EXPECT_EQ(fixture.s_pages.size(), 3u);
  fixture.num_pages = (*disk_db)->disk().num_pages();
  return fixture;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Overwrites the 32-bit header field at `offset` of `page` in a closed file.
void PatchHeaderU32(const std::string& path, PageId page, uint32_t offset,
                    uint32_t value) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), (uint64_t{page} + 1) * kPageSize);
  std::memcpy(bytes.data() + uint64_t{page} * kPageSize + offset, &value,
              sizeof(value));
  WriteFileBytes(path, bytes);
}

constexpr uint32_t kNextOffset = offsetof(PageHeader, next);
constexpr uint32_t kCountOffset = offsetof(PageHeader, count);

TEST(DiskCorruptionTest, HeapCountPastPageCapacityIsRejected) {
  const CorruptionFixture fixture =
      MakeCorruptionFixture("corrupt_count.db");
  // r's first page is full; one tuple more than fits would make a scan
  // read past the end of the 8 KiB page.
  const PageId page = fixture.r_pages[0];
  PatchHeaderU32(fixture.path, page, kCountOffset,
                 HeapFile::TuplesPerPage(2) + 1);
  auto disk_db = DiskDatabase::Open(fixture.path);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();
  const Status scan =
      (*disk_db)->Scan(0, [](std::span<const uint32_t>) { return true; });
  EXPECT_EQ(scan.code(), StatusCode::kInternal);
  EXPECT_NE(scan.message().find("heap page " + std::to_string(page)),
            std::string::npos)
      << scan;
  std::vector<PageId> pages;
  EXPECT_EQ((*disk_db)->relation(0).CollectPageIds(&pages).code(),
            StatusCode::kInternal);
  for (unsigned threads : {1u, 2u}) {
    DiskShapeSource source(disk_db->get());
    EXPECT_FALSE(storage::FindShapes(
                     source, {.mode = storage::ShapeFinderMode::kScan,
                              .threads = threads})
                     .ok())
        << "threads " << threads;
  }
  std::remove(fixture.path.c_str());
}

// Not a parent-commit regression test: without the header check, this
// Append writes past the end of the tail page's frame.
TEST(DiskCorruptionTest, AppendRejectsOverfullTailPage) {
  const CorruptionFixture fixture =
      MakeCorruptionFixture("corrupt_tail_count.db");
  PatchHeaderU32(fixture.path, fixture.r_pages.back(), kCountOffset,
                 HeapFile::TuplesPerPage(2) + 1);
  auto disk_db = DiskDatabase::Open(fixture.path);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();
  const std::vector<uint32_t> tuple = {1, 2};
  EXPECT_EQ((*disk_db)->Append(0, tuple).code(), StatusCode::kInternal);
  std::remove(fixture.path.c_str());
}

// A `next` pointing back into its own chain must end the walk with an
// error instead of looping (and growing the page directory) forever.
TEST(DiskCorruptionTest, HeapChainCycleIsRejected) {
  const CorruptionFixture fixture =
      MakeCorruptionFixture("corrupt_heap_cycle.db");
  // Both pages of the loop are full, so only the hop bound can end it.
  PatchHeaderU32(fixture.path, fixture.r_pages[1], kNextOffset,
                 fixture.r_pages[0]);
  auto disk_db = DiskDatabase::Open(fixture.path);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();
  std::vector<PageId> pages;
  const Status walk = (*disk_db)->relation(0).CollectPageIds(&pages);
  EXPECT_EQ(walk.code(), StatusCode::kInternal);
  EXPECT_NE(walk.message().find("loops"), std::string::npos) << walk;
  EXPECT_LE(pages.size(), fixture.num_pages);
  // The threaded scan plan seeks through the page directory, which is
  // built by that walk.
  DiskShapeSource source(disk_db->get());
  EXPECT_FALSE(storage::FindShapes(
                   source, {.mode = storage::ShapeFinderMode::kScan,
                            .threads = 2})
                   .ok());
  std::remove(fixture.path.c_str());
}

TEST(DiskCorruptionTest, CatalogChainCycleIsRejected) {
  const CorruptionFixture fixture =
      MakeCorruptionFixture("corrupt_catalog_cycle.db");
  PatchHeaderU32(fixture.path, 0, kNextOffset, 0);
  auto disk_db = DiskDatabase::Open(fixture.path);
  ASSERT_FALSE(disk_db.ok());
  EXPECT_EQ(disk_db.status().code(), StatusCode::kInternal);
  EXPECT_NE(disk_db.status().message().find("loops"), std::string::npos)
      << disk_db.status();
  std::remove(fixture.path.c_str());
}

// Flips each byte of each page header, one at a time (all eight bits, and
// the low bit alone so small page ids in `next` turn into neighbouring,
// valid ones), then opens the file and runs both plans. Every run must end
// in a Status — never a crash, an out-of-bounds read or a hang. Flips in
// the magic or the checksum must be caught by the full scan, and so must a
// flip in a heap page's `count` unless it raises the tail page's count
// (rows past the catalog's tuple count are never read).
TEST(DiskCorruptionTest, HeaderByteFlipsEndInAStatus) {
  const CorruptionFixture fixture = MakeCorruptionFixture("corrupt_sweep.db");
  const std::string pristine = ReadFileBytes(fixture.path);
  ASSERT_EQ(pristine.size(), uint64_t{fixture.num_pages} * kPageSize);
  const std::string path = TempPath("corrupt_sweep_variant.db");
  for (PageId page = 0; page < fixture.num_pages; ++page) {
    for (uint32_t byte = 0; byte < kPageHeaderSize; ++byte) {
      for (uint8_t mask : {uint8_t{0xff}, uint8_t{0x01}}) {
        std::string bytes = pristine;
        bytes[uint64_t{page} * kPageSize + byte] ^= static_cast<char>(mask);
        WriteFileBytes(path, bytes);
        const std::string where = "page " + std::to_string(page) +
                                  ", header byte " + std::to_string(byte) +
                                  ", mask " + std::to_string(mask);
        auto disk_db = DiskDatabase::Open(path, /*num_frames=*/16);
        if (!disk_db.ok()) continue;
        bool scan_failed = false;
        for (storage::ShapeFinderMode mode :
             {storage::ShapeFinderMode::kScan,
              storage::ShapeFinderMode::kExists}) {
          for (unsigned threads : {1u, 2u}) {
            DiskShapeSource source(disk_db->get());
            const bool ok =
                storage::FindShapes(source, {.mode = mode, .threads = threads})
                    .ok();
            if (mode == storage::ShapeFinderMode::kScan && threads == 1) {
              scan_failed = !ok;
            }
          }
        }
        const bool magic_or_checksum =
            byte < offsetof(PageHeader, kind) ||
            byte >= offsetof(PageHeader, checksum);
        const bool heap_page =
            std::count(fixture.r_pages.begin(), fixture.r_pages.end(),
                       page) +
                std::count(fixture.s_pages.begin(), fixture.s_pages.end(),
                           page) >
            0;
        bool count_caught = false;
        if (heap_page && byte >= kCountOffset &&
            byte < kCountOffset + sizeof(uint32_t)) {
          PageHeader before;
          PageHeader after;
          std::memcpy(&before, pristine.data() + uint64_t{page} * kPageSize,
                      sizeof(before));
          std::memcpy(&after, bytes.data() + uint64_t{page} * kPageSize,
                      sizeof(after));
          count_caught =
              before.next != kInvalidPageId || after.count < before.count;
        }
        if (magic_or_checksum || count_caught) {
          EXPECT_TRUE(scan_failed) << where;
        }
      }
    }
  }
  std::remove(path.c_str());
  std::remove(fixture.path.c_str());
}

}  // namespace
}  // namespace pager
}  // namespace chase
