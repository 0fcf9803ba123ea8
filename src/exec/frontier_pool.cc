#include "exec/frontier_pool.h"

#include <chrono>

#include "base/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {
namespace {

// True once per phase measurement: both sinks off means no clock read at
// all on the barrier/chunk paths.
bool PoolObserved() {
  return obs::MetricsRegistry::enabled() || obs::TraceRecorder::enabled();
}

// Records one finished pool phase ("barrier_wait" or "chunks") of
// `duration` for `worker`: an aggregate counter (<counter_name> in
// microseconds) plus a per-worker trace span, each behind its own gate.
// The trace timestamp is back-dated from now by the duration so the span
// lands where the phase ran.
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
    // Both endpoints through the session clock (see ToUs): a re-read
    // "now minus duration" back-dating drifts a few microseconds and
    // partially overlaps the neighboring phase's span.
    event.ts_us = recorder.ToUs(begin);
    event.dur_us = recorder.ToUs(now) - event.ts_us;
    event.arg0_name = "worker";
    event.arg0 = worker;
    recorder.Emit(event);
  }
}

}  // namespace

WorkerPool::WorkerPool(unsigned threads) : threads_(std::max(1u, threads)) {
  workers_.reserve(threads_ - 1);
  for (unsigned t = 1; t < threads_; ++t) {
    workers_.emplace_back(&WorkerPool::Loop, this, t);
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  start_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::RunChunks(unsigned worker) {
  // Chunks of roughly equal size, a few per thread, dealt dynamically: a
  // worker stuck on one expensive index only holds back its chunk, and the
  // tail of the index space still spreads across the pool. Once the abort
  // flag trips, no further chunk is claimed pool-wide.
  while (abort_ == nullptr || !abort_->load(std::memory_order_acquire)) {
    const size_t first = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (first >= n_) break;
    const size_t last = std::min(n_, first + chunk_);
    for (size_t index = first; index < last; ++index) {
      (*work_)(worker, index);
    }
  }
}

void WorkerPool::ParallelFor(
    size_t n, const std::function<void(unsigned worker, size_t index)>& work,
    const std::atomic<bool>* abort) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    for (size_t index = 0; index < n; ++index) {
      if (abort != nullptr && abort->load(std::memory_order_acquire)) return;
      work(0, index);
    }
    return;
  }
  {
    MutexLock lock(mu_);
    n_ = n;
    chunk_ = FrontierChunkSize(n, threads_);
    work_ = &work;
    abort_ = abort;
    next_.store(0, std::memory_order_relaxed);
    running_ = threads_ - 1;
    ++epoch_;  // the reusable barrier: workers wake on the advance
  }
  start_cv_.NotifyAll();
  const bool observed = PoolObserved();
  const auto busy_begin = observed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  RunChunks(0);  // the calling thread is worker 0
  if (observed) {
    RecordPoolPhase("chunks", "pool.busy_us", 0, busy_begin);
    if (obs::MetricsRegistry::enabled()) {
      obs::MetricsRegistry::Get().GetCounter("pool.epochs")->Add(1);
    }
  }
  const auto wait_begin = observed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  {
    MutexLock lock(mu_);
    while (running_ != 0) done_cv_.Wait(mu_);
    work_ = nullptr;
    abort_ = nullptr;
  }
  // Worker 0's time blocked on the stragglers is barrier wait like any
  // other worker's. Recorded outside mu_ so the obs latches never nest
  // inside the pool's.
  if (observed) {
    RecordPoolPhase("barrier_wait", "pool.barrier_wait_us", 0, wait_begin);
  }
}

void WorkerPool::Loop(unsigned worker) {
  uint64_t seen_epoch = 0;
  mu_.Lock();
  while (true) {
    // Idle time between epochs: measured only when some sink is on, and
    // recorded after the latch drops so obs latches never nest inside mu_.
    const bool observed = PoolObserved();
    const auto wait_begin = observed
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    while (!stop_ && epoch_ == seen_epoch) start_cv_.Wait(mu_);
    if (stop_) {
      mu_.Unlock();
      return;
    }
    seen_epoch = epoch_;
    mu_.Unlock();
    if (observed) {
      RecordPoolPhase("barrier_wait", "pool.barrier_wait_us", worker,
                      wait_begin);
    }
    const auto busy_begin = observed
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    RunChunks(worker);
    if (observed) {
      RecordPoolPhase("chunks", "pool.busy_us", worker, busy_begin);
    }
    mu_.Lock();
    // Only the ParallelFor caller waits on done_cv_, so one wakeup is
    // enough — and only the last worker to finish issues it.
    if (--running_ == 0) done_cv_.NotifyOne();
  }
}

}  // namespace chase
