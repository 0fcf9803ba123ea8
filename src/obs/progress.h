// Live progress for long (or non-terminating — the paper's whole subject)
// chases: the engine publishes cheap relaxed counters into a
// ChaseProgressSink; a ProgressReporter thread samples them on an interval
// and prints one status line per tick to a stream (stderr in chasectl).
//
// The publishing side is deliberately dumber than the trace recorder:
// four relaxed atomic stores, no clock, no buffer — the engine updates
// once per round plus every few thousand trigger firings, so even that is
// far off the hot path.

#ifndef CHASE_OBS_PROGRESS_H_
#define CHASE_OBS_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <thread>

#include "base/sync.h"

namespace chase {
namespace obs {

// Shared between the chase engine (writer) and a ProgressReporter
// (reader). All relaxed: a tick may see a slightly torn snapshot across
// fields (round from this update, triggers from the last), which is fine
// for a human status line.
struct ChaseProgressSink {
  std::atomic<uint64_t> rounds{0};
  std::atomic<uint64_t> atoms{0};
  std::atomic<uint64_t> nulls{0};
  std::atomic<uint64_t> triggers{0};

  void Update(uint64_t round, uint64_t atom_count, uint64_t null_count,
              uint64_t trigger_count) {
    rounds.store(round, std::memory_order_relaxed);
    atoms.store(atom_count, std::memory_order_relaxed);
    nulls.store(null_count, std::memory_order_relaxed);
    triggers.store(trigger_count, std::memory_order_relaxed);
  }
};

// Runs `tick` every `interval` on its own thread until stopped. Stop()
// (also run by the destructor) wakes the thread promptly via a condition
// variable — no up-to-a-tick shutdown stall — joins it, and runs `tick`
// once more on the calling thread so runs shorter than one interval still
// report.
class PeriodicTicker {
 public:
  PeriodicTicker(std::chrono::seconds interval, std::function<void()> tick);
  ~PeriodicTicker();

  void Stop();

 private:
  void Loop();

  const std::chrono::seconds interval_;
  const std::function<void()> tick_;

  Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread thread_;
};

// Prints "[chase] round R  atoms A  nulls N  triggers T (X/s)" to `os`
// every `interval` until stopped, plus one final line at Stop().
class ProgressReporter {
 public:
  ProgressReporter(std::ostream* os, const ChaseProgressSink* sink,
                   std::chrono::seconds interval);

  void Stop() { ticker_.Stop(); }

 private:
  void PrintLine();

  std::ostream* const os_;
  const ChaseProgressSink* const sink_;

  // Touched only by the ticker thread, and by Stop after the join — a
  // strict handoff, so no latch.
  std::chrono::steady_clock::time_point last_tick_;
  uint64_t last_triggers_ = 0;

  // Last: its thread may print as soon as it starts, and it stops (with
  // the final line) before the fields above are destroyed.
  PeriodicTicker ticker_;
};

// Periodically dumps the whole metrics registry as JSON to `os` — the
// engine behind `chasectl chase --metrics-interval=SECS`, for watching the
// counters of a live chase evolve instead of only seeing the final
// `--metrics` snapshot. Each tick emits one self-contained JSON object
// (the DumpJson format) prefixed by a "[metrics t=<seconds>]" marker line
// so interleaved progress output stays parseable; Stop() emits one final
// dump.
class MetricsDumper {
 public:
  MetricsDumper(std::ostream* os, std::chrono::seconds interval);

  void Stop() { ticker_.Stop(); }

 private:
  void Dump();

  std::ostream* const os_;
  const std::chrono::steady_clock::time_point start_;

  PeriodicTicker ticker_;  // last, as in ProgressReporter
};

}  // namespace obs
}  // namespace chase

#endif  // CHASE_OBS_PROGRESS_H_
