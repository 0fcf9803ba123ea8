#include "obs/progress.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "base/sync.h"
#include "obs/metrics.h"

namespace chase {
namespace obs {

PeriodicTicker::PeriodicTicker(std::chrono::seconds interval,
                               std::function<void()> tick)
    : interval_(interval),
      tick_(std::move(tick)),
      thread_([this] { Loop(); }) {}

PeriodicTicker::~PeriodicTicker() { Stop(); }

void PeriodicTicker::Stop() {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  tick_();
}

void PeriodicTicker::Loop() {
  MutexLock lock(mu_);
  while (!stop_) {
    // Sleep out one interval, re-waiting on spurious wakeups; a Stop
    // notification breaks out before the deadline.
    const auto deadline = std::chrono::steady_clock::now() + interval_;
    while (!stop_ &&
           cv_.WaitUntil(mu_, deadline) != std::cv_status::timeout) {
    }
    if (stop_) break;
    tick_();
  }
}

ProgressReporter::ProgressReporter(std::ostream* os,
                                   const ChaseProgressSink* sink,
                                   std::chrono::seconds interval)
    : os_(os),
      sink_(sink),
      last_tick_(std::chrono::steady_clock::now()),
      ticker_(interval, [this] { PrintLine(); }) {}

void ProgressReporter::PrintLine() {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed_s =
      std::chrono::duration<double>(now - last_tick_).count();
  const uint64_t triggers = sink_->triggers.load(std::memory_order_relaxed);
  const uint64_t delta = triggers - last_triggers_;
  const double rate = elapsed_s > 0 ? static_cast<double>(delta) / elapsed_s
                                    : 0;
  last_tick_ = now;
  last_triggers_ = triggers;
  char line[160];
  std::snprintf(line, sizeof(line),
                "[chase] round %" PRIu64 "  atoms %" PRIu64 "  nulls %" PRIu64
                "  triggers %" PRIu64 " (%.0f/s)\n",
                sink_->rounds.load(std::memory_order_relaxed),
                sink_->atoms.load(std::memory_order_relaxed),
                sink_->nulls.load(std::memory_order_relaxed), triggers, rate);
  (*os_) << line << std::flush;
}

MetricsDumper::MetricsDumper(std::ostream* os, std::chrono::seconds interval)
    : os_(os),
      start_(std::chrono::steady_clock::now()),
      ticker_(interval, [this] { Dump(); }) {}

void MetricsDumper::Dump() {
  const double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  char marker[48];
  std::snprintf(marker, sizeof(marker), "[metrics t=%.1fs]\n", t);
  (*os_) << marker;
  MetricsRegistry::Get().DumpJson(*os_);
  (*os_) << std::flush;
}

}  // namespace obs
}  // namespace chase
