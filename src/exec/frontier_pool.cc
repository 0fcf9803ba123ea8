#include "exec/frontier_pool.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {
namespace {

// True once per call: both sinks off means no clock read at all on the
// chunk and join paths.
bool PoolObserved() {
  return obs::MetricsRegistry::enabled() || obs::TraceRecorder::enabled();
}

// Records one finished phase ("barrier_wait" or "chunks") that began at
// `begin` for `worker`: an aggregate counter (<counter_name> in
// microseconds) plus a per-worker trace span, each behind its own gate.
void RecordPoolPhase(const char* name, const char* counter_name,
                     unsigned worker,
                     std::chrono::steady_clock::time_point begin) {
  const auto now = std::chrono::steady_clock::now();
  if (obs::MetricsRegistry::enabled()) {
    const int64_t us =
        std::chrono::duration_cast<std::chrono::microseconds>(now - begin)
            .count();
    obs::MetricsRegistry::Get().GetCounter(counter_name)->Add(
        static_cast<uint64_t>(us));
  }
  if (obs::TraceRecorder::enabled()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
    obs::TraceEvent event;
    event.name = name;
    event.cat = "pool";
    // Both endpoints through the session clock (see ToUs), so the span
    // does not drift into the neighboring phase's.
    event.ts_us = recorder.ToUs(begin);
    event.dur_us = recorder.ToUs(now) - event.ts_us;
    event.arg0_name = "worker";
    event.arg0 = worker;
    recorder.Emit(event);
  }
}

}  // namespace

void ParallelFor(
    unsigned threads, size_t n,
    const std::function<void(unsigned worker, size_t index)>& work) {
  threads = std::max(1u, threads);
  if (threads == 1 || n <= 1) {
    for (size_t index = 0; index < n; ++index) work(0, index);
    return;
  }
  // A few chunks per thread, dealt dynamically: a worker stuck on one
  // expensive index only holds back its chunk, and the tail of the index
  // space still spreads across the threads.
  const size_t chunk = std::max<size_t>(1, n / (4 * size_t{threads}));
  std::atomic<size_t> next{0};
  const bool observed = PoolObserved();
  const auto run_chunks = [&](unsigned worker) {
    const auto busy_begin = observed ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
    while (true) {
      const size_t first = next.fetch_add(chunk, std::memory_order_relaxed);
      if (first >= n) break;
      const size_t last = std::min(n, first + chunk);
      for (size_t index = first; index < last; ++index) work(worker, index);
    }
    if (observed) RecordPoolPhase("chunks", "pool.busy_us", worker, busy_begin);
  };

  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) workers.emplace_back(run_chunks, t);
  run_chunks(0);  // the calling thread is worker 0
  // Worker 0's time blocked on the stragglers is the call's barrier wait.
  const auto wait_begin = observed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  for (std::thread& worker : workers) worker.join();
  if (observed) {
    RecordPoolPhase("barrier_wait", "pool.barrier_wait_us", 0, wait_begin);
    if (obs::MetricsRegistry::enabled()) {
      obs::MetricsRegistry::Get().GetCounter("pool.epochs")->Add(1);
    }
  }
}

}  // namespace chase
