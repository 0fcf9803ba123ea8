// Ablation: threads for the disk-backed FindShapes scan plan, cold vs warm
// buffer pool.
//
// The scan plan deals row ranges of the heap files to its workers; every
// range seeks through the relation's page directory and faults its pages
// into the buffer pool through BufferPool::Fetch. The pool is sharded by
// page id (the shard count is chosen by the pool from its frame count), so
// concurrent faults on different pages take different latches.
//
// Each thread count scans a freshly opened database (cold pool) and then
// re-scans it (warm pool) with the uniform access/I-O metering columns of
// the other FindShapes benches, plus "dup-reads": pages read twice because
// two workers missed on the same page at once and the loser's read was
// dropped (IoCounters::duplicate_reads). Pages read beyond the 1-thread
// count that are not duplicate reads were evicted and read again. Speedups
// are against the 1-thread cold scan. Every run is checked against the
// serial in-memory scan.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

using namespace chase;
using namespace chase::bench;

namespace {

// Deliberately smaller than the workload's page count: scans must fault
// pages all the way through. "warm" rows rescan the same pool — with data
// larger than the pool they stay fault-heavy, which is the sustained-scan
// regime.
constexpr uint32_t kFrames = 128;

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  Rng rng(flags.seed);

  DataGenParams params;
  params.preds = 20;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 1'000'000;
  params.rsize = std::max<uint64_t>(
      1, static_cast<uint64_t>(200'000 * flags.scale) / params.preds);
  params.seed = rng.Next();
  auto data = GenerateData(params);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }

  storage::Catalog catalog(data->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto expected =
      storage::FindShapes(memory, {storage::ShapeFinderMode::kScan, 1});
  if (!expected.ok()) {
    std::cerr << expected.status() << "\n";
    return 1;
  }

  const std::string path = "/tmp/chase_bench_disk_scan_threads.db";
  {
    auto created =
        pager::DiskDatabase::Create(path, *data->database, kFrames);
    if (!created.ok()) {
      std::cerr << created.status() << "\n";
      return 1;
    }
  }

  std::vector<std::string> columns = {"threads", "pool", "t-scan-ms",
                                      "speedup"};
  for (const std::string& name : AccessColumnNames()) {
    columns.push_back(name);
  }
  columns.push_back("dup-reads");
  TablePrinter table(columns);

  double base_ms = 0;  // 1 thread, cold
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    double cold_ms = 0, warm_ms = 0;
    storage::AccessStats cold_access, warm_access;
    storage::IoCounters cold_io, warm_io;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      // Fresh open per rep: the pool starts empty (cold).
      auto disk_db = pager::DiskDatabase::Open(path, kFrames);
      if (!disk_db.ok()) {
        std::cerr << disk_db.status() << "\n";
        return 1;
      }
      pager::DiskShapeSource source(disk_db->get());
      const storage::FindShapesOptions options{
          .mode = storage::ShapeFinderMode::kScan, .threads = threads};

      for (bool warm : {false, true}) {
        source.stats().Reset();
        const storage::IoCounters before = source.Io();
        Timer timer;
        auto shapes = storage::FindShapes(source, options);
        const double ms = timer.ElapsedMillis();
        if (!shapes.ok() || *shapes != expected.value()) {
          std::cerr << "disk scan mismatch (threads=" << threads << ")\n";
          return 1;
        }
        const storage::IoCounters io = source.Io().Since(before);
        if (warm) {
          warm_ms = rep == 0 ? ms : std::min(warm_ms, ms);
          warm_access = source.stats();
          warm_io = io;
        } else {
          cold_ms = rep == 0 ? ms : std::min(cold_ms, ms);
          cold_access = source.stats();
          cold_io = io;
        }
      }
    }
    if (threads == 1) base_ms = cold_ms;
    for (bool warm : {false, true}) {
      const double ms = warm ? warm_ms : cold_ms;
      std::vector<std::string> row = {
          std::to_string(threads), warm ? "warm" : "cold", FmtMs(ms),
          Fmt(base_ms / std::max(ms, 1e-6), 1) + "x"};
      for (const std::string& value :
           AccessColumnValues(warm ? warm_access : cold_access,
                              warm ? warm_io : cold_io)) {
        row.push_back(value);
      }
      row.push_back(
          std::to_string((warm ? warm_io : cold_io).duplicate_reads));
      table.AddRow(row);
    }
  }
  std::remove(path.c_str());
  Emit(flags,
       "Ablation: threads for the disk FindShapes scan (cold vs warm pool)",
       table);
  if (!WriteBenchJson(flags, "disk_scan_threads", table)) return 1;
  return 0;
}
